package core

import (
	"testing"

	"rths/internal/regret"
	"rths/internal/xrand"
)

// uniformSelector is a minimal non-learner policy: uniform play, feedback
// discarded. It must never be adopted into the arena.
type uniformSelector struct{ m int }

func (u uniformSelector) Select(r *xrand.Rand) int  { return r.Intn(u.m) }
func (u uniformSelector) Update(int, float64) error { return nil }
func (u uniformSelector) NumActions() int           { return u.m }

// detachArena reverts a system to the pre-refactor memory layout: every
// resident learner is released back to private heap storage and the arena
// is dropped, so peers joining later stay private too. The arithmetic is
// untouched — which is exactly what the equivalence test below pins.
func (s *System) detachArena() {
	for _, p := range s.peers {
		s.release(p)
	}
	s.arena = nil
}

// driveChurnStages advances the system `stages` stages with deterministic
// peer/helper churn riding on top (joins, leaves, helper add/remove), and
// returns a fingerprint of every stage: welfare, server load and the full
// rate vector, all bitwise-comparable.
func driveChurnStages(t *testing.T, s *System, seed uint64, stages int) []float64 {
	t.Helper()
	r := xrand.New(seed)
	var fp []float64
	for k := 0; k < stages; k++ {
		if k > 0 && k%37 == 0 {
			switch r.Intn(4) {
			case 0:
				if _, err := s.AddPeer(nil, 400); err != nil {
					t.Fatal(err)
				}
			case 1:
				if s.NumPeers() > 8 {
					if err := s.RemovePeer(r.Intn(s.NumPeers())); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if s.NumHelpers() < 24 {
					if err := s.AddHelper(DefaultHelperSpec()); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if s.NumHelpers() > 3 {
					if err := s.RemoveHelper(r.Intn(s.NumHelpers())); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		fp = append(fp, res.Welfare, res.ServerLoad, float64(res.ViewSwaps))
		fp = append(fp, res.Rates...)
	}
	return fp
}

// The arena engine must be bit-identical to the pre-refactor engine: the
// same config run with learners resident in the arena and with learners
// on private heap storage (detachArena) realizes the same trajectory,
// stage for stage, with views off and on, under peer and helper churn.
// The struct-of-arrays refactor moves bytes, never arithmetic.
func TestArenaEngineBitIdenticalToPrivate(t *testing.T) {
	const stages = 1200
	for _, tc := range []struct {
		name     string
		viewSize int
	}{
		{"full-view-seq", 0},
		{"views-seq", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *System {
				cfg := defaultConfig(48, 12, 91)
				cfg.DemandPerPeer = 500
				cfg.ViewSize = tc.viewSize
				cfg.ViewRefresh = 20
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			arenaSys, privateSys := build(), build()
			privateSys.detachArena()
			if arenaSys.LearnerArena().Len() != arenaSys.NumPeers() {
				t.Fatalf("arena holds %d learners for %d peers", arenaSys.LearnerArena().Len(), arenaSys.NumPeers())
			}
			a := driveChurnStages(t, arenaSys, 5, stages)
			b := driveChurnStages(t, privateSys, 5, stages)
			if len(a) != len(b) {
				t.Fatalf("fingerprint lengths diverged: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("fingerprint[%d]: arena %g vs private %g — the arena changed the trajectory", i, a[i], b[i])
				}
			}
		})
	}
}

// Under sustained join/leave churn with views enabled the arena must stay
// dense — exactly one occupied slot per resident learner, no leaked slots
// from departed peers — and steady-state stages must stay allocation-free
// (including view-refresh stages: in-slot AddAction/RemoveAction edits
// replaced the per-churn reallocation).
func TestArenaDensityAndAllocsUnderChurn(t *testing.T) {
	cfg := defaultConfig(64, 16, 123)
	cfg.ViewSize = 6
	cfg.ViewRefresh = 10
	cfg.DemandPerPeer = 300
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	events := 0
	for events < 10000 {
		// A burst of join/leave churn between stages.
		for b := 0; b < 25; b++ {
			if r.Intn(2) == 0 || s.NumPeers() < 16 {
				if _, err := s.AddPeer(nil, 300); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.RemovePeer(r.Intn(s.NumPeers())); err != nil {
					t.Fatal(err)
				}
			}
			events++
		}
		if got, want := s.LearnerArena().Len(), s.NumPeers(); got != want {
			t.Fatalf("after %d churn events: arena holds %d slots for %d peers (leak or lost slot)", events, got, want)
		}
		if err := s.Run(4, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state after heavy churn: the stage loop (refresh stages
	// included) allocates nothing.
	if err := s.Run(64, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("post-churn Step allocates %g objects per stage, want 0", allocs)
	}

	// Steady-state join/leave on a full-view system allocates at most the
	// arena-born learner and its peer record: no private matrix or strategy
	// is built only to be copied into a slot and dropped.
	full, err := New(defaultConfig(400, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := full.AddPeer(nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := full.RemovePeer(r.Intn(full.NumPeers())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state AddPeer(nil)+RemovePeer allocates %g objects, want <= 2", allocs)
	}
}

// Every RTHS learner constructed through any factory path must end up
// arena-resident; non-learner policies must not.
func TestArenaAdoptsOnlyLearners(t *testing.T) {
	cfg := defaultConfig(10, 4, 3)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumPeers(); i++ {
		lrn, ok := s.Selector(i).(*regret.Learner)
		if !ok {
			t.Fatalf("peer %d: default factory did not build a learner", i)
		}
		if !s.LearnerArena().Contains(lrn) {
			t.Fatalf("peer %d learner not arena-resident", i)
		}
	}
	if _, err := s.AddPeer(uniformSelector{m: s.NewPeerActions()}, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := s.LearnerArena().Len(), s.NumPeers()-1; got != want {
		t.Fatalf("arena holds %d slots, want %d (non-learner must not be adopted)", got, want)
	}
}
