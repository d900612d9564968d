package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rths/internal/forkjoin"
)

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

// BenchmarkFeedbackPass times one stage's feedback pass — FinishStage
// after a SelectStage, the helper chains stepped between them as the
// distributed runtime does — run sequentially and in peer blocks, at
// GOMAXPROCS 1 and 2, over full-view shapes of peers × actions around
// the block gate. The shapes include faults-live's largest channel (363
// viewers on 68 helpers) and a 1,000-viewer, 16-helper channel.
// finish-ns/op is the pass alone; ns/op adds the selection pass, which
// always runs sequentially. Its numbers set blockMinWork (PERF.md "The
// fork-join executor").
func BenchmarkFeedbackPass(b *testing.B) {
	for _, sh := range []struct{ n, m int }{{250, 16}, {375, 16}, {500, 16}, {750, 16}, {1000, 16}, {120, 68}, {180, 68}, {363, 68}} {
		for _, procs := range []int{1, 2} {
			for _, blocks := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/m=%d/procs=%d/blocks=%v", sh.n, sh.m, procs, blocks)
				b.Run(name, func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					cfg := defaultConfig(sh.n, sh.m, 1)
					cfg.DemandPerPeer = 650
					s, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					// Forced to two lanes whatever the shape, or sequential.
					s.blocks = forkjoin.Gate{Procs: 1}
					if blocks {
						s.blocks = forkjoin.Gate{Procs: 2}
					}
					if err := s.Run(20, nil); err != nil {
						b.Fatal(err)
					}
					caps := make([]float64, sh.m)
					var finish time.Duration
					iters := 0
					b.ReportAllocs()
					for b.Loop() {
						if _, _, err := s.SelectStage(); err != nil {
							b.Fatal(err)
						}
						for j := range caps {
							s.HelperProcess(j).Step()
							caps[j] = s.helpers[j].capacity()
						}
						t0 := time.Now()
						if _, err := s.FinishStage(caps); err != nil {
							b.Fatal(err)
						}
						finish += time.Since(t0)
						iters++
					}
					b.ReportMetric(float64(finish.Nanoseconds())/float64(iters), "finish-ns/op")
				})
			}
		}
	}
}
