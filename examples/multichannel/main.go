// Multichannel: the paper's motivating workload — several live channels
// with Zipf-skewed audiences, each with its own helper pool, plus an origin
// server absorbing whatever the helpers cannot supply. Prints per-channel
// quality and the server's load.
package main

import (
	"fmt"
	"log"

	"rths"
)

func main() {
	// Popular channels get bigger audiences (Zipf); the helper-level
	// allocator (the paper's §V extension) splits an 11-helper pool by
	// aggregate demand before peer-level RTHS runs inside each channel.
	audiences := []int{24, 12, 6}
	bitrates := []float64{400, 300, 250}
	demands := make([]rths.ChannelDemand, 3)
	names := []string{"premier-league", "news-24", "cooking"}
	for c := range demands {
		demands[c] = rths.ChannelDemand{
			Name:   names[c],
			Demand: float64(audiences[c]) * bitrates[c],
		}
	}
	counts, err := rths.SplitHelperPool(demands, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("helper pool split by demand: %v\n\n", counts)

	// The cluster's proportional allocator deals its pool by that same
	// split, so each channel starts with counts[c] helpers; StepStage runs
	// no re-allocation boundary, so the pools stay put.
	channels := make([]rths.ClusterChannelSpec, 3)
	for c := range channels {
		channels[c] = rths.ClusterChannelSpec{
			Name:         names[c],
			Bitrate:      bitrates[c],
			InitialPeers: audiences[c],
		}
	}
	cl, err := rths.NewCluster(rths.ClusterConfig{
		Channels:  channels,
		Helpers:   rths.UniformHelpers(11, rths.DefaultHelperSpec()),
		Allocator: rths.ClusterAllocProportional,
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	server, err := rths.NewServer(8000)
	if err != nil {
		log.Fatal(err)
	}

	const stages = 3000
	welfare := make([]float64, len(channels))
	optimum := make([]float64, len(channels))
	for s := 0; s < stages; s++ {
		totals, err := cl.StepStage()
		if err != nil {
			log.Fatal(err)
		}
		// The origin tops up every channel's unmet demand.
		if _, err := server.ServeStage([]float64{totals.ServerLoad}); err != nil {
			log.Fatal(err)
		}
		if s < stages/2 {
			continue
		}
		for c := range channels {
			r := cl.ChannelStageResult(c)
			welfare[c] += r.Welfare
			optimum[c] += r.OptWelfare
		}
	}

	fmt.Println("channel            welfare/optimum")
	for c, name := range names {
		fmt.Printf("%-18s %.1f%%\n", name, 100*welfare[c]/optimum[c])
	}
	fmt.Printf("\norigin server: mean load %.1f kbps, saturated %.1f%% of stages\n",
		server.MeanLoad(), 100*server.OverloadFraction())
}
