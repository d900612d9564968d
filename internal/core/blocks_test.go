package core

import (
	"math"
	"testing"

	"rths/internal/forkjoin"
	"rths/internal/regret"
	"rths/internal/xrand"
)

// wrappedLearner is an RTHS learner behind another type: a policy the
// block gate must treat as foreign, since it cannot tell such a policy's
// state from shared state.
type wrappedLearner struct{ *regret.Learner }

// blockRun is one leg of the block-pass bit-identity test: the stage
// results and the learners' final bits.
type blockRun struct {
	stages   []StageResult
	learners [][]uint64
}

// runBlockLeg steps a full-view system through heavy churn — a helper
// added or removed every third stage, joins and leaves every other — with
// the block gate pinned to gate, and records everything the passes
// could perturb.
func runBlockLeg(t *testing.T, gate forkjoin.Gate, factory SelectorFactory) blockRun {
	t.Helper()
	cfg := defaultConfig(160, 10, 41)
	cfg.DemandPerPeer = 300
	cfg.Factory = factory
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.blocks = gate
	wide := gate.Procs > 1 && factory == nil
	if got := s.blockWidth(s.NumHelpers()) > 1; got != wide {
		t.Fatalf("gate %+v with factory set %v: blocks open = %v, want %v", gate, factory != nil, got, wide)
	}
	r := xrand.New(5)
	var out blockRun
	for k := 0; k < 240; k++ {
		if k%3 == 1 {
			if s.NumHelpers() < 6 || (s.NumHelpers() < 16 && r.Intn(2) == 0) {
				err = s.AddHelper(DefaultHelperSpec())
			} else {
				err = s.RemoveHelper(r.Intn(s.NumHelpers()))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if k%2 == 0 {
			sel, err := newSelectorFor(s, factory)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddPeer(sel, 300); err != nil {
				t.Fatal(err)
			}
			if err := s.RemovePeer(r.Intn(s.NumPeers())); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out.stages = append(out.stages, res.Clone())
	}
	for i := 0; i < s.NumPeers(); i++ {
		var l *regret.Learner
		switch sel := s.Selector(i).(type) {
		case *regret.Learner:
			l = sel
		case wrappedLearner:
			l = sel.Learner
		}
		var bits []uint64
		for _, p := range l.Probabilities() {
			bits = append(bits, math.Float64bits(p))
		}
		for j := 0; j < l.NumActions(); j++ {
			for k := 0; k < l.NumActions(); k++ {
				bits = append(bits, math.Float64bits(l.Regret(j, k)))
			}
		}
		out.learners = append(out.learners, bits)
	}
	return out
}

func newSelectorFor(s *System, factory SelectorFactory) (Selector, error) {
	if factory == nil {
		return nil, nil
	}
	return factory(s.NumPeers(), s.NewPeerActions(), s.UtilityScale())
}

func (want blockRun) check(t *testing.T, label string, got blockRun) {
	t.Helper()
	for k := range want.stages {
		w, g := want.stages[k], got.stages[k]
		if g.Welfare != w.Welfare || g.OptWelfare != w.OptWelfare || g.ServerLoad != w.ServerLoad ||
			g.MinDeficit != w.MinDeficit || !equalInts(g.Actions, w.Actions) || !equalInts(g.Loads, w.Loads) ||
			!equalBits(g.Rates, w.Rates) || !equalBits(g.Capacities, w.Capacities) {
			t.Fatalf("%s: stage %d diverges", label, k)
		}
	}
	if len(got.learners) != len(want.learners) {
		t.Fatalf("%s: %d learners, want %d", label, len(got.learners), len(want.learners))
	}
	for i := range want.learners {
		for x := range want.learners[i] {
			if got.learners[i][x] != want.learners[i][x] {
				t.Fatalf("%s: peer %d learner bit %d diverges", label, i, x)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The block passes never change a bit: with the gate forced off and
// forced open at 1, 2 and 4 pool workers besides the caller, a full-view
// system under heavy helper and peer churn realizes the same stage
// results and leaves every learner with the same bits. A policy the gate
// cannot vouch for keeps every pass sequential, forced open or not.
func TestBlockPassesBitIdentical(t *testing.T) {
	off := forkjoin.Gate{Procs: 1}
	ref := runBlockLeg(t, off, nil)
	for _, procs := range []int{2, 3, 5} {
		ref.check(t, "blocks on", runBlockLeg(t, forkjoin.Gate{Procs: procs}, nil))
	}
	wrapped := func(_, m int, _ float64) (Selector, error) {
		l, err := regret.New(regret.Defaults(m, 1))
		return wrappedLearner{l}, err
	}
	seqRef := runBlockLeg(t, off, wrapped)
	seqRef.check(t, "foreign policy, blocks forced", runBlockLeg(t, forkjoin.Gate{Procs: 4}, wrapped))
}

// A channel can lose its whole audience and still gain and lose helpers.
// Full-view churn then has no learner to edit, and a viewer who joins
// afterwards sees the current pool.
func TestHelperChurnWithoutPeers(t *testing.T) {
	s, err := New(defaultConfig(3, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	for s.NumPeers() > 0 {
		if err := s.RemovePeer(0); err != nil {
			t.Fatal(err)
		}
	}
	for _, churn := range []func() error{
		func() error { return s.AddHelper(DefaultHelperSpec()) },
		func() error { return s.AddHelper(DefaultHelperSpec()) },
		func() error { return s.RemoveHelper(0) },
	} {
		if err := churn(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddPeer(nil, 300); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Selector(0).(*regret.Learner).NumActions(); got != 5 {
		t.Fatalf("joined peer has %d actions, want 5", got)
	}
}
