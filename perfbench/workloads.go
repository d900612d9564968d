package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"rths"
)

// seeds are one trajectory's independent random streams.
type seeds struct {
	engine, churn, link uint64
}

// trajectories is the number of distinct seed sets a run cycles through.
// A single trajectory's heap, deficit and throughput depend on where its
// slabs happened to grow and where its helpers happened to move (learner
// slabs double, so one trajectory's heap per viewer sits in one of two
// modes up to 2x apart); the mean over many trajectories is what stays
// put from seed to seed.
const trajectories = 16

// deriveSeeds splits every stream a run uses from the -seed flag (never
// by seed arithmetic): one seed set per trajectory, then the layer runs'
// seed.
func deriveSeeds(seed uint64) (traj []seeds, layer uint64) {
	root := rths.NewRand(seed)
	traj = make([]seeds, trajectories)
	for k := range traj {
		r := root.Split()
		traj[k] = seeds{engine: r.Split().Uint64(), churn: r.Split().Uint64(), link: r.Split().Uint64()}
	}
	return traj, root.Split().Uint64()
}

// workload is one benchmark shape: a cluster preset with scenario fields
// overridden, plus the run geometry the benchmark measures it with.
type workload struct {
	name string
	// gomaxprocs is pinned for the whole process.
	gomaxprocs int
	// warmup epochs run before the measured epochs of every trajectory
	// and are excluded from the timing and the quality means.
	warmup, measured int
	// telemetry runs the cluster with a live Registry, a Tracer writing
	// to io.Discard and periodic series.
	telemetry bool
	scenario  func(s seeds, warmup, epochs int) rths.ClusterScenario
}

// epochs is one trajectory's length.
func (w workload) epochs() int { return w.warmup + w.measured }

// workloads are the shapes the benchmark runs. A viewer-churn shape
// (25 channels of 2,500 zapping viewers over 4-helper pools) was left
// out: on a shared 2-vCPU host its run-to-run throughput spread for
// unchanged code was wider than the comparison bound, and each noisy
// shape is one more comparison that the host alone can fail.
var workloads = []workload{
	{
		// The regret kernel dominates: deep pools, every viewer
		// selecting over a 16-helper view.
		name:       "deep-views",
		gomaxprocs: 1,
		warmup:     2,
		measured:   10,
		scenario: func(s seeds, warmup, epochs int) rths.ClusterScenario {
			sc := rths.ClusterViews()
			sc.TotalPeers = 1000
			sc.Helpers = 256
			sc.ViewSize = 16
			sc.ViewRefresh = 25
			sc.SwitchProb = 0.002
			sc.EpochStages = 25
			sc.Epochs = epochs
			sc.FlashPeers = 0
			sc.Seed = s.engine
			return sc
		},
	},
	{
		// Distsim, replayed churn, helper churn and live telemetry: the
		// faults preset with its crash and partition inside the
		// measured window.
		name:       "faults-live",
		gomaxprocs: 2,
		warmup:     2,
		measured:   30,
		telemetry:  true,
		scenario: func(s seeds, warmup, epochs int) rths.ClusterScenario {
			sc := rths.ClusterFaults()
			start := warmup * sc.EpochStages
			sc.TotalPeers = 1000
			sc.Epochs = epochs
			sc.ChurnArrivalRate = 4
			sc.ChurnMeanLifetime = 50
			sc.ChurnSwitchRate = 0.01
			sc.CrashFrom, sc.CrashUntil = start+25, start+55
			sc.PartitionFrom, sc.PartitionUntil = start+40, start+80
			sc.Seed = s.engine
			sc.ChurnSeed = s.churn
			sc.LinkSeed = s.link
			return sc
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// instance is one trajectory of a workload: its scenario, the replayed
// churn trace, if any, and whether its clusters run with live telemetry.
type instance struct {
	sc        rths.ClusterScenario
	wl        *rths.Workload
	telemetry bool
}

func (w workload) newInstance(s seeds, telemetry bool) (*instance, error) {
	sc := w.scenario(s, w.warmup, w.epochs())
	wl, err := sc.Workload()
	if err != nil {
		return nil, err
	}
	return &instance{sc: sc, wl: wl, telemetry: telemetry}, nil
}

// open builds the cluster config, with fresh telemetry sinks when enabled
// (a Registry cannot be shared between clusters), collects garbage and
// constructs the cluster. It returns the config and the wall time of
// NewCluster alone.
func (in *instance) open() (*rths.Cluster, rths.ClusterConfig, time.Duration, error) {
	cfg, err := in.sc.Build()
	if err != nil {
		return nil, cfg, 0, err
	}
	if in.telemetry {
		reg := rths.NewTelemetryRegistry()
		reg.RegisterRuntimeMetrics()
		cfg.Metrics = reg
		cfg.Trace = rths.NewTracer(io.Discard)
		cfg.SeriesEvery = 10
	}
	runtime.GC()
	t0 := time.Now()
	c, err := rths.NewCluster(cfg)
	return c, cfg, time.Since(t0), err
}
