package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func validConfig() ChurnConfig {
	return ChurnConfig{
		Horizon:      500,
		ArrivalRate:  0.5,
		MeanLifetime: 100,
		Channels:     5,
		ZipfS:        1.0,
		SwitchRate:   0.01,
		Seed:         1,
	}
}

func TestConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		field string // the error must name it
		mut   func(*ChurnConfig)
	}{
		{"horizon", "Horizon", func(c *ChurnConfig) { c.Horizon = 0 }},
		{"arrival", "ArrivalRate", func(c *ChurnConfig) { c.ArrivalRate = -1 }},
		{"arrival NaN", "ArrivalRate", func(c *ChurnConfig) { c.ArrivalRate = nan }},
		{"arrival +Inf", "ArrivalRate", func(c *ChurnConfig) { c.ArrivalRate = inf }},
		// Finite but far past the event bound: rejected before generating.
		{"arrival 1e9", "ArrivalRate", func(c *ChurnConfig) { c.ArrivalRate = 1e9 }},
		{"lifetime", "MeanLifetime", func(c *ChurnConfig) { c.MeanLifetime = 0 }},
		{"lifetime NaN", "MeanLifetime", func(c *ChurnConfig) { c.MeanLifetime = nan }},
		{"lifetime +Inf", "MeanLifetime", func(c *ChurnConfig) { c.MeanLifetime = inf }},
		{"channels", "Channels", func(c *ChurnConfig) { c.Channels = 0 }},
		{"zipf", "ZipfS", func(c *ChurnConfig) { c.ZipfS = -0.1 }},
		{"zipf NaN", "ZipfS", func(c *ChurnConfig) { c.ZipfS = nan }},
		{"switch", "SwitchRate", func(c *ChurnConfig) { c.SwitchRate = 1 }},
		{"switch NaN", "SwitchRate", func(c *ChurnConfig) { c.SwitchRate = nan }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mut(&cfg)
			_, err := GenerateChurn(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

// Arrivals within the bound can still zap past it: peers that never
// leave switch channels every few stages, so the switch events grow with
// the square of the horizon. Generation stops at the bound with an error.
func TestGenerateChurnBoundsSwitchEvents(t *testing.T) {
	cfg := ChurnConfig{Horizon: 2000, ArrivalRate: 10, MeanLifetime: 1e9, Channels: 4, SwitchRate: 0.5, Seed: 1}
	if _, err := GenerateChurn(cfg); err == nil || !strings.Contains(err.Error(), "ArrivalRate") {
		t.Fatalf("err = %v, want the event bound naming ArrivalRate", err)
	}
}

func TestGenerateChurnDeterministic(t *testing.T) {
	a, err := GenerateChurn(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChurn(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
}

// Property: the trace is replayable — every leave/switch refers to a peer
// that joined earlier and is still active, and events are stage-sorted.
func TestChurnConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := validConfig()
		cfg.Seed = seed
		w, err := GenerateChurn(cfg)
		if err != nil {
			return false
		}
		active := map[int]bool{}
		lastStage := 0
		for _, e := range w.Events {
			if e.Stage < lastStage {
				return false
			}
			lastStage = e.Stage
			switch e.Kind {
			case Join:
				if active[e.PeerID] {
					return false
				}
				active[e.PeerID] = true
			case Leave:
				if !active[e.PeerID] {
					return false
				}
				delete(active, e.PeerID)
			case Switch:
				if !active[e.PeerID] {
					return false
				}
			}
			if e.Channel < 0 || e.Channel >= cfg.Channels {
				return false
			}
		}
		return len(active) == w.FinalActive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWithinStageOrderMatchesGeneration pins the documented tie-break to
// the generator's own sequencing: within a stage, leaves come first (they
// free membership slots), then switches among the survivors, then joins.
// A replay applying Events in slice order therefore reproduces exactly the
// state sequence GenerateChurn walked through.
func TestWithinStageOrderMatchesGeneration(t *testing.T) {
	cfg := validConfig()
	cfg.Horizon = 1500
	cfg.ArrivalRate = 1.5
	cfg.MeanLifetime = 30
	cfg.SwitchRate = 0.05
	w, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := map[EventKind]int{Leave: 0, Switch: 1, Join: 2}
	counts := map[EventKind]int{}
	mixedStages := 0
	for i := 1; i < len(w.Events); i++ {
		prev, cur := w.Events[i-1], w.Events[i]
		counts[cur.Kind]++
		if cur.Stage != prev.Stage {
			continue
		}
		if order[cur.Kind] < order[prev.Kind] {
			t.Fatalf("stage %d: %v event after %v event", cur.Stage, cur.Kind, prev.Kind)
		}
		if cur.Kind == prev.Kind && cur.PeerID < prev.PeerID {
			t.Fatalf("stage %d: %v peer ids out of order (%d after %d)",
				cur.Stage, cur.Kind, cur.PeerID, prev.PeerID)
		}
		if cur.Kind != prev.Kind {
			mixedStages++
		}
	}
	// The workload must actually exercise the tie-break: every kind present,
	// and stages that mix kinds.
	for _, k := range []EventKind{Join, Leave, Switch} {
		if counts[k] == 0 {
			t.Fatalf("workload has no %v events; ordering not exercised", k)
		}
	}
	if mixedStages == 0 {
		t.Fatal("no stage mixes event kinds; ordering not exercised")
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	cfg := validConfig()
	cfg.Horizon = 2000
	cfg.ArrivalRate = 2
	w, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	joins := make([]int, cfg.Channels)
	for _, e := range w.Events {
		if e.Kind == Join {
			joins[e.Channel]++
		}
	}
	if joins[0] <= joins[cfg.Channels-1] {
		t.Fatalf("Zipf skew missing: joins %v", joins)
	}
}

func TestPeakAndPerStage(t *testing.T) {
	cfg := validConfig()
	w, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.Peak <= 0 {
		t.Fatalf("Peak = %d", w.Peak)
	}
	per := w.PerStage(cfg.Horizon)
	if len(per) != cfg.Horizon {
		t.Fatalf("PerStage length %d", len(per))
	}
	count := 0
	for _, evs := range per {
		count += len(evs)
	}
	if count != len(w.Events) {
		t.Fatalf("PerStage dropped events: %d vs %d", count, len(w.Events))
	}
}

func TestChannelDemand(t *testing.T) {
	d, err := ChannelDemand(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("demand sums to %g", sum)
	}
	if math.Abs(d[0]/d[1]-2) > 1e-9 {
		t.Fatalf("Zipf(1) ratio = %g, want 2", d[0]/d[1])
	}
	if _, err := ChannelDemand(0, 1); err == nil {
		t.Fatal("channels=0 accepted")
	}
	if _, err := ChannelDemand(3, -1); err == nil {
		t.Fatal("negative skew accepted")
	}
	if _, err := ChannelDemand(3, math.NaN()); err == nil {
		t.Fatal("NaN skew accepted")
	}
	uniform, err := ChannelDemand(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range uniform {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform demand %v", uniform)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if Join.String() != "join" || Leave.String() != "leave" || Switch.String() != "switch" {
		t.Fatal("event kind strings wrong")
	}
	if EventKind(0).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
