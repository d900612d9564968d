package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"rths/internal/forkjoin"
	"rths/internal/metrics"
	"rths/internal/regret"
	"rths/internal/xrand"
)

func defaultConfig(n, h int, seed uint64) Config {
	helpers := make([]HelperSpec, h)
	for j := range helpers {
		helpers[j] = DefaultHelperSpec()
	}
	return Config{NumPeers: n, Helpers: helpers, Seed: seed}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumPeers: -1, Helpers: []HelperSpec{DefaultHelperSpec()}}); err == nil {
		t.Fatal("negative peers accepted")
	}
	if _, err := New(Config{NumPeers: 1}); err == nil {
		t.Fatal("no helpers accepted")
	}
	cfg := defaultConfig(2, 2, 1)
	cfg.DemandPerPeer = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative demand accepted")
	}
	bad := defaultConfig(2, 2, 1)
	bad.Helpers[0].Levels = []float64{0}
	if _, err := New(bad); err == nil {
		t.Fatal("zero level accepted")
	}
	badInit := defaultConfig(2, 2, 1)
	badInit.Helpers[0].InitState = 7
	if _, err := New(badInit); err == nil {
		t.Fatal("out-of-range init state accepted")
	}
	// Non-finite floats are rejected with an error naming the field. NaN
	// fails every ordered comparison, so a bare sign check lets it through.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, field string
		mutate      func(*Config)
	}{
		{"NaN demand", "DemandPerPeer", func(c *Config) { c.DemandPerPeer = nan }},
		{"+Inf demand", "DemandPerPeer", func(c *Config) { c.DemandPerPeer = inf }},
		{"NaN utility scale", "UtilityScale", func(c *Config) { c.UtilityScale = nan }},
		{"+Inf utility scale", "UtilityScale", func(c *Config) { c.UtilityScale = inf }},
		{"NaN level", "level", func(c *Config) { c.Helpers[0].Levels = []float64{300, nan} }},
		{"+Inf level", "level", func(c *Config) { c.Helpers[1].Levels = []float64{inf} }},
	} {
		cfg := defaultConfig(2, 2, 1)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s: New returned %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	s, err := New(defaultConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []float64{nan, inf} {
		if _, err := s.AddPeer(nil, demand); err == nil || !strings.Contains(err.Error(), "demand") {
			t.Fatalf("AddPeer(nil, %g) returned %v, want an error naming demand", demand, err)
		}
	}
	if s.NumPeers() != 2 {
		t.Fatalf("rejected AddPeer calls left %d peers, want 2", s.NumPeers())
	}
}

func TestUtilityScaleOverride(t *testing.T) {
	cfg := defaultConfig(2, 2, 1)
	cfg.UtilityScale = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative utility scale accepted")
	}
	cfg.UtilityScale = 100 // below the 900 kbps default top level
	if _, err := New(cfg); err == nil {
		t.Fatal("utility scale below largest level accepted")
	}
	cfg.UtilityScale = 1500
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.UtilityScale(); got != 1500 {
		t.Fatalf("UtilityScale() = %g, want 1500", got)
	}
	// A helper whose levels exceed the local pool's maximum but not the
	// shared override joins fine — the cluster's migration contract.
	if err := s.AddHelper(HelperSpec{Levels: []float64{1200}}); err != nil {
		t.Fatalf("AddHelper under shared scale: %v", err)
	}
	if err := s.Run(10, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStageResultInvariants(t *testing.T) {
	s, err := New(defaultConfig(10, 4, 42))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPeers() != 10 || s.NumHelpers() != 4 {
		t.Fatalf("size accessors: %d peers %d helpers", s.NumPeers(), s.NumHelpers())
	}
	if s.UtilityScale() != 900 {
		t.Fatalf("UtilityScale = %g", s.UtilityScale())
	}
	for stage := 0; stage < 200; stage++ {
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stage != stage {
			t.Fatalf("Stage = %d, want %d", res.Stage, stage)
		}
		// Loads must sum to peers; rates consistent with C/n; welfare is the
		// sum of occupied capacities.
		loadSum := 0
		for _, l := range res.Loads {
			loadSum += l
		}
		if loadSum != 10 {
			t.Fatalf("loads sum to %d", loadSum)
		}
		welfare := 0.0
		for j, l := range res.Loads {
			if l > 0 {
				welfare += res.Capacities[j]
			}
		}
		if math.Abs(welfare-res.Welfare) > 1e-9 {
			t.Fatalf("welfare identity: %g vs %g", welfare, res.Welfare)
		}
		for i, a := range res.Actions {
			want := res.Capacities[a] / float64(res.Loads[a])
			if math.Abs(res.Rates[i]-want) > 1e-12 {
				t.Fatalf("peer %d rate %g, want %g", i, res.Rates[i], want)
			}
		}
		// Capacities must be one of the configured levels.
		for j, c := range res.Capacities {
			if c != 700 && c != 800 && c != 900 {
				t.Fatalf("helper %d capacity %g not a configured level", j, c)
			}
		}
		// OptWelfare with N >= H is the total capacity.
		total := 0.0
		for _, c := range res.Capacities {
			total += c
		}
		if math.Abs(res.OptWelfare-total) > 1e-9 {
			t.Fatalf("OptWelfare = %g, want %g", res.OptWelfare, total)
		}
	}
	if s.Stage() != 200 {
		t.Fatalf("Stage() = %d", s.Stage())
	}
}

func TestOptWelfareFewPeers(t *testing.T) {
	caps := []float64{700, 900, 800}
	scratch := make([]float64, len(caps))
	if got := topSum(caps, scratch, 2); got != 1700 {
		t.Fatalf("topSum(2) = %g, want 1700", got)
	}
	if got := topSum(caps, scratch, 3); got != 2400 {
		t.Fatalf("topSum(3) = %g, want 2400", got)
	}
	// topSum must not disturb its input.
	if caps[0] != 700 || caps[1] != 900 || caps[2] != 800 {
		t.Fatalf("topSum mutated caps: %v", caps)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []float64 {
		s, err := New(defaultConfig(5, 3, 123))
		if err != nil {
			t.Fatal(err)
		}
		var welfare []float64
		if err := s.Run(50, func(r StageResult) { welfare = append(welfare, r.Welfare) }); err != nil {
			t.Fatal(err)
		}
		return welfare
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at stage %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestDemandAccounting(t *testing.T) {
	cfg := defaultConfig(10, 2, 7)
	cfg.DemandPerPeer = 300
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Total demand 3000 > max helper supply 1800, so both server load and
	// the minimum deficit must be positive, and server load >= deficit.
	if res.MinDeficit <= 0 {
		t.Fatalf("MinDeficit = %g", res.MinDeficit)
	}
	capSum := 0.0
	for _, c := range res.Capacities {
		capSum += c
	}
	wantDeficit := 3000 - capSum
	if math.Abs(res.MinDeficit-wantDeficit) > 1e-9 {
		t.Fatalf("MinDeficit = %g, want %g", res.MinDeficit, wantDeficit)
	}
	if res.ServerLoad < res.MinDeficit-1e-9 {
		t.Fatalf("ServerLoad %g below MinDeficit %g", res.ServerLoad, res.MinDeficit)
	}
}

func TestStageResultClone(t *testing.T) {
	s, err := New(defaultConfig(3, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	cp := res.Clone()
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	// The clone must be unaffected by the next step's buffer reuse.
	loadSum := 0
	for _, l := range cp.Loads {
		loadSum += l
	}
	if loadSum != 3 {
		t.Fatalf("cloned loads corrupted: %v", cp.Loads)
	}
}

// The headline integration test: the RTHS system on the paper's small-scale
// scenario (N=10, H=4) must approach optimal welfare, near-even load, fair
// rates, and vanishing audited regret — Figs. 1–4 in miniature.
func TestRTHSSmallScaleConvergence(t *testing.T) {
	const (
		n, h   = 10, 4
		stages = 4000
	)
	s, err := New(defaultConfig(n, h, 2024))
	if err != nil {
		t.Fatal(err)
	}
	audit, err := metrics.NewRegretAudit(n, h)
	if err != nil {
		t.Fatal(err)
	}
	welfareFrac := metrics.NewSeries("welfare-frac")
	var tailLoadsCV, tailJain metrics.Welford
	rateSums := make([]float64, n)
	err = s.Run(stages, func(r StageResult) {
		if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
			t.Fatal(err)
		}
		welfareFrac.Append(r.Welfare / r.OptWelfare)
		if r.Stage >= stages/2 {
			tailLoadsCV.Add(metrics.BalanceCV(metrics.IntsToFloats(r.Loads)))
			tailJain.Add(metrics.Jain(r.Rates))
			for i, rate := range r.Rates {
				rateSums[i] += rate
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := welfareFrac.TailMean(stages / 2); got < 0.93 {
		t.Fatalf("tail welfare fraction = %g, want >= 0.93", got)
	}
	if got := audit.WorstRegret(); got > 60 {
		t.Fatalf("audited worst regret = %g kbps, want <= 60", got)
	}
	// Instantaneous rates cannot be exactly equal (10 peers cannot split 4
	// helpers evenly within one stage), but the stage-wise index must stay
	// well above the herding regime.
	if got := tailJain.Mean(); got < 0.75 {
		t.Fatalf("tail per-stage Jain = %g, want >= 0.75", got)
	}
	// Long-run average rates should be nearly equal across peers (Fig 4).
	if got := metrics.Jain(rateSums); got < 0.99 {
		t.Fatalf("long-run rate Jain = %g, want >= 0.99", got)
	}
	// Loads should be reasonably balanced on average (Fig 3): CV below the
	// herding regime (herding gives CV ~ sqrt(H-1) ≈ 1.7 here).
	if got := tailLoadsCV.Mean(); got > 0.6 {
		t.Fatalf("tail load CV = %g, want <= 0.6", got)
	}
}

func TestPeerChurn(t *testing.T) {
	s, err := New(defaultConfig(4, 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	idx, err := s.AddPeer(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 || s.NumPeers() != 5 {
		t.Fatalf("AddPeer -> idx %d, peers %d", idx, s.NumPeers())
	}
	if err := s.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePeer(2); err != nil {
		t.Fatal(err)
	}
	if s.NumPeers() != 4 {
		t.Fatalf("NumPeers = %d after removal", s.NumPeers())
	}
	if err := s.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	// Guards.
	if err := s.RemovePeer(99); err == nil {
		t.Fatal("out-of-range RemovePeer accepted")
	}
	wrong := regret.MustNew(regret.Defaults(5, 1))
	if _, err := s.AddPeer(wrong, 0); err == nil {
		t.Fatal("selector with wrong action count accepted")
	}
	// A removed peer's learner is destroyed with it: re-adding it must
	// be rejected, not bound to an arena slot it never wrote.
	dead := s.Selector(0)
	if err := s.RemovePeer(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPeer(dead, 0); err == nil {
		t.Fatal("removed peer's learner re-added")
	}
	if _, err := s.AddPeer(nil, -2); err == nil {
		t.Fatal("negative demand accepted")
	}
	// Rejected joins leave no arena slot behind.
	if got, want := s.LearnerArena().Len(), s.NumPeers(); got != want {
		t.Fatalf("arena holds %d slots for %d peers after rejected joins", got, want)
	}
}

func TestHelperChurn(t *testing.T) {
	s, err := New(defaultConfig(6, 3, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	// A helper crashes.
	if err := s.RemoveHelper(1); err != nil {
		t.Fatal(err)
	}
	if s.NumHelpers() != 2 {
		t.Fatalf("NumHelpers = %d", s.NumHelpers())
	}
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loads) != 2 || len(res.Capacities) != 2 {
		t.Fatalf("post-crash result sized %d/%d", len(res.Loads), len(res.Capacities))
	}
	// A new helper joins.
	if err := s.AddHelper(DefaultHelperSpec()); err != nil {
		t.Fatal(err)
	}
	if s.NumHelpers() != 3 {
		t.Fatalf("NumHelpers = %d after join", s.NumHelpers())
	}
	if err := s.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	// Guards.
	if err := s.RemoveHelper(9); err == nil {
		t.Fatal("out-of-range RemoveHelper accepted")
	}
	over := DefaultHelperSpec()
	over.Levels = []float64{5000}
	if err := s.AddHelper(over); err == nil {
		t.Fatal("scale-breaking helper accepted")
	}
}

func TestRunPropagatesSelectorErrors(t *testing.T) {
	cfg := defaultConfig(2, 2, 1)
	cfg.Factory = func(_, m int, _ float64) (Selector, error) {
		return badSelector{}, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1, nil); err == nil {
		t.Fatal("invalid selector action not reported")
	}
}

type badSelector struct{}

func (badSelector) Select(*xrand.Rand) int    { return 7 } // out of range
func (badSelector) Update(int, float64) error { return nil }
func (badSelector) NumActions() int           { return 2 }

// newTestRand gives churn property tests an RNG without importing
// math/rand (keeps all randomness on the repo's deterministic generator).
func newTestRand(seed uint64) *xrand.Rand { return xrand.New(seed) }

// System.Step must be allocation-free in steady state — the "reuses
// internal buffers" contract, pinned.
func TestStepZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, h   int
		blocks bool // feedback forked in blocks on two lanes
	}{
		{"N>=H", 32, 4, false},
		{"N<H (partial selection)", 3, 8, false},
		{"blocks at GOMAXPROCS 2", blockMinWork / 16, 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defaultConfig(tc.n, tc.h, 77)
			cfg.DemandPerPeer = 650
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.blocks {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
				s.blocks = forkjoin.Gate{Procs: 2, MinWork: blockMinWork}
				if w := s.blockWidth(tc.h); w != 2 {
					t.Fatalf("block gate width %d at %d×%d, want 2", w, tc.n, tc.h)
				}
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
