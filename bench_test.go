// Benchmarks regenerating every table and figure of the paper's evaluation
// (ICDCS 2014, §IV). Each benchmark runs its experiment end to end per
// iteration and reports the figure's headline quantity as a custom metric,
// so `go test -bench=. -benchmem` both times the harness and re-derives the
// paper's qualitative results:
//
//	Fig 1: worst-player regret → ~0      (worst_regret_kbps)
//	Fig 2: RTHS ≈ centralized MDP        (welfare_frac)
//	Fig 3: even helper loads             (load_cv)
//	Fig 4: fair per-peer bandwidth       (jain)
//	Fig 5: server load ≈ minimum deficit (load_over_deficit)
//	A1:    best response oscillates      (rths/br switch rates)
//	A2:    tracking adapts, matching lags (early post-swap share)
//	A3/A4: parameter and recursion ablations
//
// The sizes are trimmed relative to cmd/figures so a full -bench=. pass
// stays in CI budget; the shapes are identical.
package rths_test

import (
	"testing"

	"rths"
	"rths/internal/experiment"
	"rths/internal/regret"
)

func benchScenario(stages int) rths.Scenario {
	s := rths.SmallScale()
	s.Stages = stages
	s.Seed = 1
	return s
}

func BenchmarkFig1WorstRegret(b *testing.B) {
	s := rths.LargeScale()
	s.NumPeers, s.NumHelpers, s.Stages = 60, 8, 1200
	var final float64
	for i := 0; i < b.N; i++ {
		res, err := rths.Fig1(s)
		if err != nil {
			b.Fatal(err)
		}
		final = res.Final
	}
	b.ReportMetric(final, "worst_regret_kbps")
}

func BenchmarkFig2WelfareVsMDP(b *testing.B) {
	s := benchScenario(2000)
	var ratio, opt float64
	for i := 0; i < b.N; i++ {
		res, err := rths.Fig2(s)
		if err != nil {
			b.Fatal(err)
		}
		ratio, opt = res.TailRatio, res.MDPOptimum
	}
	b.ReportMetric(ratio, "welfare_frac")
	b.ReportMetric(opt, "mdp_optimum_kbps")
}

func BenchmarkFig3HelperLoad(b *testing.B) {
	s := benchScenario(2000)
	var cv float64
	for i := 0; i < b.N; i++ {
		res, err := rths.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		cv = res.TailCV
	}
	b.ReportMetric(cv, "load_cv")
}

func BenchmarkFig4PeerRates(b *testing.B) {
	s := benchScenario(2000)
	var jain float64
	for i := 0; i < b.N; i++ {
		res, err := rths.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		jain = res.Jain
	}
	b.ReportMetric(jain, "jain")
}

func BenchmarkFig5ServerLoad(b *testing.B) {
	s := benchScenario(2000)
	s.DemandPerPeer = 600
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := rths.Fig5(s)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.TailGapFraction
	}
	b.ReportMetric(frac, "load_over_deficit")
}

func BenchmarkAblationBestResponseOscillation(b *testing.B) {
	s := benchScenario(1500)
	var rths0, br float64
	for i := 0; i < b.N; i++ {
		stats, err := experiment.AblationPolicies(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range stats {
			switch st.Policy {
			case "rths":
				rths0 = st.SwitchRate
			case "best-response":
				br = st.SwitchRate
			}
		}
	}
	b.ReportMetric(rths0, "rths_switch_rate")
	b.ReportMetric(br, "best_response_switch_rate")
}

func BenchmarkAblationTrackingVsMatching(b *testing.B) {
	s := benchScenario(3000)
	var track, match float64
	for i := 0; i < b.N; i++ {
		tr, err := experiment.AblationShift(s, regret.ModeTracking)
		if err != nil {
			b.Fatal(err)
		}
		ma, err := experiment.AblationShift(s, regret.ModeMatching)
		if err != nil {
			b.Fatal(err)
		}
		track, match = tr.EarlyPostShare, ma.EarlyPostShare
	}
	b.ReportMetric(track, "tracking_early_share")
	b.ReportMetric(match, "matching_early_share")
}

func BenchmarkAblationStepSize(b *testing.B) {
	s := benchScenario(1000)
	var worstWelfare float64
	for i := 0; i < b.N; i++ {
		pts, err := experiment.AblationSweep(s,
			[]float64{0.01, 0.05}, []float64{0.05}, []float64{0.05, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		worstWelfare = 1
		for _, p := range pts {
			if p.WelfareFraction < worstWelfare {
				worstWelfare = p.WelfareFraction
			}
		}
	}
	b.ReportMetric(worstWelfare, "min_welfare_frac_over_sweep")
}

func BenchmarkAblationPaperExactRecursion(b *testing.B) {
	s := benchScenario(1500)
	var tracking, paperExact float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.AblationRecursion(s)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.Mode {
			case regret.ModeTracking:
				tracking = r.WelfareFraction
			case regret.ModePaperExact:
				paperExact = r.WelfareFraction
			default:
			}
		}
	}
	b.ReportMetric(tracking, "tracking_welfare_frac")
	b.ReportMetric(paperExact, "paper_exact_welfare_frac")
}

// BenchmarkDistributedRuntime times the batched message-passing protocol
// end to end — the concurrency cost of the distributed implementation
// versus the sequential simulator (BenchmarkSequentialSystem).
func BenchmarkDistributedRuntime(b *testing.B) {
	specs := make([]rths.HelperSpec, 4)
	for j := range specs {
		specs[j] = rths.DefaultHelperSpec()
	}
	for i := 0; i < b.N; i++ {
		rt, err := rths.NewDistsim(rths.DistsimConfig{
			Channels: []rths.DistsimChannelConfig{{Seed: 1, InitialPeers: 10}},
			Helpers:  specs,
			Assign:   make([]int, len(specs)),
		})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 500; r++ {
			if _, err := rt.StepRound(); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialSystem(b *testing.B) {
	specs := make([]rths.HelperSpec, 4)
	for j := range specs {
		specs[j] = rths.DefaultHelperSpec()
	}
	for i := 0; i < b.N; i++ {
		sys, err := rths.NewSystem(rths.SystemConfig{NumPeers: 10, Helpers: specs, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(500, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*500/b.Elapsed().Seconds(), "stages/sec")
}

// benchHotPath measures the steady-state per-stage cost of System.Step —
// construction excluded, so allocs/op is the per-stage allocation count
// (pinned to 0 by TestStepZeroAllocs) and ns/op is the stage latency.
func benchHotPath(b *testing.B, peers, helpers int) {
	specs := make([]rths.HelperSpec, helpers)
	for j := range specs {
		specs[j] = rths.DefaultHelperSpec()
	}
	sys, err := rths.NewSystem(rths.SystemConfig{
		NumPeers: peers, Helpers: specs, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm up learners and buffers so b.N stages measure steady state.
	if err := sys.Run(8, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stages/sec")
	b.ReportMetric(float64(b.N)*float64(peers)/b.Elapsed().Seconds(), "peerstages/sec")
}

// BenchmarkHotPathStep tracks the stage-engine throughput across population
// scales; cmd/hotbench emits the same quantities to BENCH_hotpath.json so
// the trajectory is recorded across PRs.
func BenchmarkHotPathStep(b *testing.B) {
	b.Run("N=10/H=4/seq", func(b *testing.B) { benchHotPath(b, 10, 4) })
	b.Run("N=1000/H=16/seq", func(b *testing.B) { benchHotPath(b, 1000, 16) })
	b.Run("N=100000/H=16/seq", func(b *testing.B) { benchHotPath(b, 100000, 16) })
}

// benchViewStep measures the partial-view stage engine at a fixed H=256
// pool with varying view bounds (0 = full views): per-stage cost must
// scale with the view size v, not the pool size H.
func benchViewStep(b *testing.B, peers, helpers, viewSize int) {
	specs := make([]rths.HelperSpec, helpers)
	for j := range specs {
		specs[j] = rths.DefaultHelperSpec()
	}
	sys, err := rths.NewSystem(rths.SystemConfig{
		NumPeers: peers, Helpers: specs, Seed: 1, ViewSize: viewSize,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(8, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stages/sec")
	b.ReportMetric(float64(b.N)*float64(peers)/b.Elapsed().Seconds(), "peerstages/sec")
}

// BenchmarkViewStep tracks the O(v) vs O(H) per-update claim; cmd/hotbench
// records the same pair (views-256h-full / views-256h-v16) in
// BENCH_hotpath.json so the gap is gated across PRs.
func BenchmarkViewStep(b *testing.B) {
	b.Run("N=128/H=256/full", func(b *testing.B) { benchViewStep(b, 128, 256, 0) })
	b.Run("N=128/H=256/v=16", func(b *testing.B) { benchViewStep(b, 128, 256, 16) })
	b.Run("N=128/H=256/v=4", func(b *testing.B) { benchViewStep(b, 128, 256, 4) })
}

// benchCluster measures the multi-channel cluster runtime end to end:
// Markov-switching viewers, channel stepping (on the derived channel pool
// when GOMAXPROCS and the stage size allow), and a re-allocation boundary
// every epoch.
func benchCluster(b *testing.B, channels, peers, helpers int) {
	sc := rths.ClusterSmall()
	sc.Channels, sc.TotalPeers, sc.Helpers = channels, peers, helpers
	sc.EpochStages = 10
	sc.FlashPeers = 0
	cfg, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	c, err := rths.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.RunEpoch(); err != nil { // warmup epoch
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	stages := float64(b.N) * float64(sc.EpochStages)
	b.ReportMetric(stages/b.Elapsed().Seconds(), "stages/sec")
	b.ReportMetric(stages*float64(peers)/b.Elapsed().Seconds(), "peerstages/sec")
}

// BenchmarkClusterEpoch tracks the cluster engine's throughput; the same
// shapes are recorded to BENCH_hotpath.json by cmd/hotbench.
func BenchmarkClusterEpoch(b *testing.B) {
	b.Run("C=20/N=1000/H=40/seq", func(b *testing.B) { benchCluster(b, 20, 1000, 40) })
	b.Run("C=100/N=10000/H=150", func(b *testing.B) { benchCluster(b, 100, 10000, 150) })
}
