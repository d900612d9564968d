package core_test

import (
	"testing"

	"rths/internal/baseline"
	"rths/internal/core"
	"rths/internal/regret"
)

func extConfig(n, h int, seed uint64) core.Config {
	helpers := make([]core.HelperSpec, h)
	for j := range helpers {
		helpers[j] = core.DefaultHelperSpec()
	}
	return core.Config{NumPeers: n, Helpers: helpers, Seed: seed}
}

// RTHS must beat myopic best response on load stability — the §III.B story.
func TestRTHSBeatsBestResponseOscillation(t *testing.T) {
	const (
		n, h   = 10, 4
		stages = 2000
	)
	run := func(factory core.SelectorFactory, seed uint64) (switchRate float64) {
		cfg := extConfig(n, h, seed)
		cfg.Factory = factory
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]int, n)
		switches := 0
		total := 0
		err = s.Run(stages, func(r core.StageResult) {
			if r.Stage >= stages/2 {
				for i, a := range r.Actions {
					if a != prev[i] {
						switches++
					}
					total++
				}
			}
			copy(prev, r.Actions)
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(switches) / float64(total)
	}
	brFactory := func(_, numHelpers int, _ float64) (core.Selector, error) {
		return baseline.NewBestResponse(numHelpers)
	}
	rths := run(nil, 99)
	br := run(brFactory, 99)
	if rths > 0.35 {
		t.Fatalf("RTHS switch rate = %g, want settled (<= 0.35)", rths)
	}
	if br < rths+0.2 {
		t.Fatalf("best response switch rate %g should exceed RTHS %g by >= 0.2", br, rths)
	}
}

func TestSystemWithAllBaselines(t *testing.T) {
	factories := map[string]core.SelectorFactory{
		"random": func(_, m int, _ float64) (core.Selector, error) { return baseline.NewRandom(m) },
		"static": func(i, m int, _ float64) (core.Selector, error) { return baseline.NewStatic(m, i%m) },
		"egreedy": func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewEpsilonGreedy(m, 0.1, 0.1)
		},
		"bestresponse": func(_, m int, _ float64) (core.Selector, error) { return baseline.NewBestResponse(m) },
		"leastloaded":  func(_, m int, _ float64) (core.Selector, error) { return baseline.NewLeastLoaded(m) },
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			cfg := extConfig(8, 3, 11)
			cfg.Factory = f
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(300, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHelperChurnRequiresDynamicSelectors(t *testing.T) {
	cfg := extConfig(2, 2, 3)
	cfg.Factory = func(_, numHelpers int, _ float64) (core.Selector, error) {
		return baseline.NewStatic(numHelpers, 0)
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddHelper(core.DefaultHelperSpec()); err == nil {
		t.Fatal("AddHelper with static selectors accepted")
	}
	if err := s.RemoveHelper(0); err == nil {
		t.Fatal("RemoveHelper with static selectors accepted")
	}
}

// countingBR is a best-response peer that counts its stage notifications.
type countingBR struct {
	*baseline.BestResponse
	seen int
}

func (c *countingBR) ObserveStage(res core.StageResult) {
	c.seen++
	c.BestResponse.ObserveStage(res)
}

// Departures keep the stage-observer list exact in a population mixing
// best-response and RTHS peers: a removed observer hears no further
// stages, and a removed learner leaves every remaining observer notified
// exactly once per stage.
func TestRemovePeerKeepsObserverList(t *testing.T) {
	cfg := extConfig(6, 3, 5)
	var observers []*countingBR
	cfg.Factory = func(i, m int, _ float64) (core.Selector, error) {
		if i%2 == 1 {
			return regret.New(regret.Defaults(m, 1))
		}
		br, err := baseline.NewBestResponse(m)
		if err != nil {
			return nil, err
		}
		c := &countingBR{BestResponse: br}
		observers = append(observers, c)
		return c, nil
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(want ...int) {
		t.Helper()
		for k, c := range observers {
			if c.seen != want[k] {
				t.Fatalf("observer %d saw %d stages, want %d", k, c.seen, want[k])
			}
		}
	}
	if err := sys.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	check(10, 10, 10)
	if err := sys.RemovePeer(1); err != nil { // a learner
		t.Fatal(err)
	}
	if err := sys.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	check(15, 15, 15)
	if err := sys.RemovePeer(0); err != nil { // observers[0]
		t.Fatal(err)
	}
	if err := sys.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	check(15, 20, 20)
}
