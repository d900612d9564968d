package core

import "testing"

// churnBenchSystem builds the full-view 400-peer, 30-helper system the
// churn benchmarks edit: every peer's learner holds a 30×30 matrix. One
// warm-up cycle of each edit grows the arena slabs and stage buffers to
// their steady-state capacity, so even a one-iteration run measures the
// steady state.
func churnBenchSystem(b *testing.B) *System {
	b.Helper()
	s, err := New(defaultConfig(400, 30, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Run(20, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := s.AddPeer(nil, 0); err != nil {
		b.Fatal(err)
	}
	if err := s.RemovePeer(0); err != nil {
		b.Fatal(err)
	}
	if err := s.AddHelper(DefaultHelperSpec()); err != nil {
		b.Fatal(err)
	}
	if err := s.RemoveHelper(0); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkHelperChurn measures one helper arrival plus one departure,
// each after a stage, as helpers migrate between channels: every peer's
// learner edits its matrix in its arena slot twice, an O(m) addition and
// a removal from the middle index that moves O(m²/2) entries, each with
// a pending decay weight that carries over unchanged.
func BenchmarkHelperChurn(b *testing.B) {
	s := churnBenchSystem(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := s.AddHelper(DefaultHelperSpec()); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
		if err := s.RemoveHelper(s.NumHelpers() / 2); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeerChurn measures one default-learner join plus one departure.
func BenchmarkPeerChurn(b *testing.B) {
	s := churnBenchSystem(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.AddPeer(nil, 0); err != nil {
			b.Fatal(err)
		}
		if err := s.RemovePeer(s.NumPeers() / 2); err != nil {
			b.Fatal(err)
		}
	}
}
