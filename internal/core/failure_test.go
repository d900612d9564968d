package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rths/internal/metrics"
)

// Flash crowd: the population quadruples in one stage; rates drop but the
// system must stay consistent and re-equilibrate.
func TestFlashCrowd(t *testing.T) {
	s, err := New(defaultConfig(5, 4, 71))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500, nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 15; k++ {
		if _, err := s.AddPeer(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumPeers() != 20 {
		t.Fatalf("NumPeers = %d", s.NumPeers())
	}
	welfare, optimum := 0.0, 0.0
	err = s.Run(2000, func(r StageResult) {
		loadSum := 0
		for _, l := range r.Loads {
			loadSum += l
		}
		if loadSum != 20 {
			t.Fatalf("loads sum to %d after flash crowd", loadSum)
		}
		if r.Stage >= 1500 {
			welfare += r.Welfare
			optimum += r.OptWelfare
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := welfare / optimum; frac < 0.9 {
		t.Fatalf("post-flash-crowd welfare fraction = %g", frac)
	}
}

// Mass departure: most of the audience leaves; the system keeps running
// and the stragglers enjoy higher rates.
func TestMassDeparture(t *testing.T) {
	s, err := New(defaultConfig(20, 4, 73))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(500, nil); err != nil {
		t.Fatal(err)
	}
	for s.NumPeers() > 2 {
		if err := s.RemovePeer(0); err != nil {
			t.Fatal(err)
		}
	}
	var rates metrics.Welford
	err = s.Run(500, func(r StageResult) {
		for _, rate := range r.Rates {
			rates.Add(rate)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two peers over four helpers: each should usually have a helper to
	// itself, so mean rates approach full capacities (~800).
	if rates.Mean() < 600 {
		t.Fatalf("post-departure mean rate = %g", rates.Mean())
	}
}

// Cascading helper failures: helpers crash one by one under load until a
// single one remains; every intermediate configuration must stay sound.
func TestCascadingHelperFailures(t *testing.T) {
	s, err := New(defaultConfig(8, 4, 79))
	if err != nil {
		t.Fatal(err)
	}
	for s.NumHelpers() > 1 {
		if err := s.Run(300, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveHelper(0); err != nil {
			t.Fatal(err)
		}
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		loadSum := 0
		for _, l := range res.Loads {
			loadSum += l
		}
		if loadSum != 8 {
			t.Fatalf("loads sum to %d with %d helpers", loadSum, s.NumHelpers())
		}
	}
	// All peers forced onto the single survivor.
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[0] != 8 {
		t.Fatalf("survivor load = %d", res.Loads[0])
	}
	if math.Abs(res.Rates[0]-res.Capacities[0]/8) > 1e-12 {
		t.Fatalf("survivor rate = %g", res.Rates[0])
	}
}

func TestSetHelperLevelsValidation(t *testing.T) {
	s, err := New(defaultConfig(4, 2, 83))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetHelperLevels(5, []float64{700}, 0); err == nil {
		t.Fatal("out-of-range helper accepted")
	}
	if err := s.SetHelperLevels(0, []float64{5000}, 0); err == nil {
		t.Fatal("scale-breaking level accepted")
	}
	if err := s.SetHelperLevels(0, nil, 0); err == nil {
		t.Fatal("empty levels accepted")
	}
	// A NaN level passes the utility-scale check (every comparison with
	// NaN is false), so the helper constructor must name and reject it,
	// for SetHelperLevels and AddHelper alike.
	if err := s.SetHelperLevels(0, []float64{500, math.NaN()}, 0); err == nil || !strings.Contains(err.Error(), "level") {
		t.Fatalf("SetHelperLevels with a NaN level returned %v, want an error naming the level", err)
	}
	if err := s.AddHelper(HelperSpec{Levels: []float64{math.NaN()}}); err == nil || !strings.Contains(err.Error(), "level") {
		t.Fatalf("AddHelper with a NaN level returned %v, want an error naming the level", err)
	}
	if s.NumHelpers() != 2 {
		t.Fatalf("rejected AddHelper left %d helpers, want 2", s.NumHelpers())
	}
	if err := s.SetHelperLevels(0, []float64{300, 500}, math.NaN()); err == nil {
		t.Fatal("NaN switch probability accepted")
	}
	if err := s.SetHelperLevels(0, []float64{500}, 0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacities[0] != 500 {
		t.Fatalf("capacity after SetHelperLevels = %g", res.Capacities[0])
	}
}

// Property: under arbitrary interleavings of churn operations the system
// never produces an inconsistent stage (loads partition peers; rates match
// C/n; welfare identity holds).
func TestChurnInterleavingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := New(defaultConfig(6, 3, seed))
		if err != nil {
			return false
		}
		r := newTestRand(seed)
		for op := 0; op < 40; op++ {
			switch r.Intn(5) {
			case 0:
				if _, err := s.AddPeer(nil, 0); err != nil {
					return false
				}
			case 1:
				if s.NumPeers() > 1 {
					if err := s.RemovePeer(r.Intn(s.NumPeers())); err != nil {
						return false
					}
				}
			case 2:
				if s.NumHelpers() < 6 {
					if err := s.AddHelper(DefaultHelperSpec()); err != nil {
						return false
					}
				}
			case 3:
				if s.NumHelpers() > 1 {
					if err := s.RemoveHelper(r.Intn(s.NumHelpers())); err != nil {
						return false
					}
				}
			default:
			}
			res, err := s.Step()
			if err != nil {
				return false
			}
			loadSum := 0
			for _, l := range res.Loads {
				loadSum += l
			}
			if loadSum != s.NumPeers() {
				return false
			}
			welfare := 0.0
			for j, l := range res.Loads {
				if l > 0 {
					welfare += res.Capacities[j]
				}
			}
			if math.Abs(welfare-res.Welfare) > 1e-9 {
				return false
			}
			for i, a := range res.Actions {
				if math.Abs(res.Rates[i]-res.Capacities[a]/float64(res.Loads[a])) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
