// Distributed: the same learning dynamics, but as a real message-passing
// system — every helper is its own node with a batched per-round inbox, a
// channel-manager node hosts the peers, and the only thing a peer's policy
// ever learns is its own rate (the paper's zero-knowledge property,
// enforced by the bandit feedback). Output should match the sequential
// simulator's quality.
package main

import (
	"fmt"
	"log"

	"rths"
)

func main() {
	const (
		peers   = 10
		helpers = 4
		epochs  = 3000
	)
	// One channel whose manager hosts every peer and owns every helper
	// (Assign all zero); each StepRound is one epoch of the repeated game.
	rt, err := rths.NewDistsim(rths.DistsimConfig{
		Channels: []rths.DistsimChannelConfig{{Name: "distributed", Seed: 2024, InitialPeers: peers}},
		Helpers:  rths.UniformHelpers(helpers, rths.DefaultHelperSpec()),
		Assign:   make([]int, helpers),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var tailWelfare, tailOptimum float64
	for e := 0; e < epochs; e++ {
		stats, err := rt.StepRound()
		if err != nil {
			log.Fatal(err)
		}
		ch := &stats.Channels[0]
		if (e+1)%500 == 0 {
			fmt.Printf("epoch %4d  welfare %6.1f kbps  loads %v\n", e+1, ch.Welfare, ch.Loads)
		}
		if e >= epochs/2 {
			tailWelfare += ch.Welfare
			for _, c := range ch.Capacities {
				tailOptimum += c
			}
		}
	}
	fmt.Printf("\n%d peers on a manager node + %d helper nodes, %d epochs, O(helpers) messages/round\n",
		peers, helpers, epochs)
	fmt.Printf("tail welfare: %.1f%% of optimum — no peer's policy ever saw another's state\n",
		100*tailWelfare/tailOptimum)
}
