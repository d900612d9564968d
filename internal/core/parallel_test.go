package core

import (
	"math"
	"testing"

	"rths/internal/metrics"
)

func workersConfig(n, h, workers int, seed uint64) Config {
	cfg := defaultConfig(n, h, seed)
	cfg.Workers = workers
	return cfg
}

func TestWorkersValidation(t *testing.T) {
	cfg := defaultConfig(2, 2, 1)
	cfg.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// The sharded engine must satisfy the same per-stage accounting identities
// as the sequential one.
func TestParallelStageInvariants(t *testing.T) {
	const n, h = 300, 6
	cfg := workersConfig(n, h, 4, 99)
	cfg.DemandPerPeer = 500
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage < 100; stage++ {
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		loadSum := 0
		for _, l := range res.Loads {
			loadSum += l
		}
		if loadSum != n {
			t.Fatalf("stage %d: loads sum to %d", stage, loadSum)
		}
		welfare := 0.0
		for j, l := range res.Loads {
			if l > 0 {
				welfare += res.Capacities[j]
			}
		}
		if math.Abs(welfare-res.Welfare) > 1e-6 {
			t.Fatalf("stage %d: welfare %g vs occupied capacity %g", stage, res.Welfare, welfare)
		}
		for i, a := range res.Actions {
			want := res.Capacities[a] / float64(res.Loads[a])
			if math.Abs(res.Rates[i]-want) > 1e-12 {
				t.Fatalf("stage %d peer %d rate %g, want %g", stage, i, res.Rates[i], want)
			}
		}
		if res.ServerLoad < res.MinDeficit-1e-6 {
			t.Fatalf("stage %d: ServerLoad %g below MinDeficit %g", stage, res.ServerLoad, res.MinDeficit)
		}
	}
}

// Parallel runs must be seed-reproducible: two systems with the same
// (Seed, Workers) pair realize bit-identical trajectories despite the
// goroutine fan-out.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s, err := New(workersConfig(512, 8, 4, 123))
		if err != nil {
			t.Fatal(err)
		}
		var welfare []float64
		if err := s.Run(60, func(r StageResult) { welfare = append(welfare, r.Welfare) }); err != nil {
			t.Fatal(err)
		}
		return welfare
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stage %d diverged: %g vs %g — sharding broke determinism", i, a[i], b[i])
		}
	}
}

// The inline (small-N) and goroutine (large-N) executions of the sharded
// engine consume the same per-shard RNG streams in the same order, so they
// must produce bit-identical results.
func TestParallelInlineMatchesGoroutines(t *testing.T) {
	collect := func(minPerShard int) []float64 {
		s, err := New(workersConfig(256, 5, 4, 7))
		if err != nil {
			t.Fatal(err)
		}
		// Force both sides of the gate: the per-shard population
		// threshold, and GOMAXPROCS open so the goroutine branch is
		// really exercised even on a single-core host (the spawned
		// goroutines then just time-slice — same streams, same results,
		// which is exactly the property under test).
		s.shardMinPeers = minPerShard
		s.maxProcs = 2
		var welfare []float64
		if err := s.Run(50, func(r StageResult) { welfare = append(welfare, r.Welfare) }); err != nil {
			t.Fatal(err)
		}
		return welfare
	}
	inline := collect(1 << 30) // force inline shards
	spawned := collect(1)      // force goroutine fan-out
	for i := range inline {
		if inline[i] != spawned[i] {
			t.Fatalf("stage %d: inline %g vs goroutines %g", i, inline[i], spawned[i])
		}
	}
}

// The parallel engine must reproduce the paper's headline figure metrics on
// the small-scale scenario: near-optimal tail welfare (Fig 2), balanced
// helper loads (Fig 3), and fair long-run rates (Fig 4). The trajectories
// differ from sequential mode (different RNG streams), so the comparison is
// against the same absolute thresholds the sequential convergence test uses.
func TestParallelMatchesSequentialFigureMetrics(t *testing.T) {
	const (
		n, h   = 10, 4
		stages = 4000
	)
	type headline struct {
		welfareFrac float64
		loadCV      float64
		longRunJain float64
	}
	collect := func(workers int, seed uint64) headline {
		cfg := workersConfig(n, h, workers, seed)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		welfareFrac := metrics.NewSeries("welfare-frac")
		var tailCV metrics.Welford
		rateSums := make([]float64, n)
		err = s.Run(stages, func(r StageResult) {
			welfareFrac.Append(r.Welfare / r.OptWelfare)
			if r.Stage >= stages/2 {
				tailCV.Add(metrics.BalanceCV(metrics.IntsToFloats(r.Loads)))
				for i, rate := range r.Rates {
					rateSums[i] += rate
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return headline{
			welfareFrac: welfareFrac.TailMean(stages / 2),
			loadCV:      tailCV.Mean(),
			longRunJain: metrics.Jain(rateSums),
		}
	}
	seq := collect(0, 2024)
	par := collect(4, 2024)
	for _, hl := range []struct {
		name string
		got  headline
	}{{"sequential", seq}, {"parallel", par}} {
		if hl.got.welfareFrac < 0.93 {
			t.Errorf("%s tail welfare fraction = %g, want >= 0.93", hl.name, hl.got.welfareFrac)
		}
		if hl.got.loadCV > 0.6 {
			t.Errorf("%s tail load CV = %g, want <= 0.6", hl.name, hl.got.loadCV)
		}
		if hl.got.longRunJain < 0.99 {
			t.Errorf("%s long-run rate Jain = %g, want >= 0.99", hl.name, hl.got.longRunJain)
		}
	}
	// And the two engines must agree with each other on the equilibrium
	// quality, not just clear the absolute bar.
	if math.Abs(seq.welfareFrac-par.welfareFrac) > 0.03 {
		t.Errorf("welfare fraction gap %g vs %g exceeds 0.03", seq.welfareFrac, par.welfareFrac)
	}
}

// Peer and helper churn must keep the sharded buffers consistent.
func TestParallelChurn(t *testing.T) {
	s, err := New(workersConfig(200, 4, 3, 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(30, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPeer(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePeer(13); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(30, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveHelper(2); err != nil {
		t.Fatal(err)
	}
	var lastLoads []int
	err = s.Run(30, func(r StageResult) {
		lastLoads = r.Loads
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, l := range lastLoads {
		sum += l
	}
	if sum != s.NumPeers() {
		t.Fatalf("loads sum %d != %d peers after churn", sum, s.NumPeers())
	}
}

// Selector errors raised inside shards must surface from Step.
func TestParallelPropagatesSelectorErrors(t *testing.T) {
	cfg := workersConfig(100, 2, 4, 1)
	cfg.Factory = func(_, m int, _ float64) (Selector, error) {
		return badSelector{}, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1, nil); err == nil {
		t.Fatal("invalid shard selector action not reported")
	}
}

// System.Step must be allocation-free in steady state on the sequential
// engine — the "reuses internal buffers" contract, pinned.
func TestStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, h int
	}{
		{"N>=H", 32, 4},
		{"N<H (partial selection)", 3, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig(tc.n, tc.h, 77)
			cfg.DemandPerPeer = 650
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up so learners and buffers reach steady state.
			if err := s.Run(64, nil); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Step allocates %g objects per stage, want 0", allocs)
			}
		})
	}
}

// The inline parallel engine (small populations) must also be
// allocation-free per stage.
func TestParallelInlineStepZeroAllocs(t *testing.T) {
	s, err := New(workersConfig(64, 4, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(64, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("inline sharded Step allocates %g objects per stage, want 0", allocs)
	}
}
