package regret

import (
	"fmt"
	"math"
	"testing"

	"rths/internal/xrand"
)

// regrets snapshots every Q(j,k) of a learner.
func regrets(l *Learner) [][]float64 {
	q := make([][]float64, l.NumActions())
	for j := range q {
		q[j] = make([]float64, l.NumActions())
		for k := range q[j] {
			q[j][k] = l.Regret(j, k)
		}
	}
	return q
}

// Helper churn is pure data movement: AddAction and RemoveAction move the
// stored entries and leave the lazy decay weight alone, so w and every
// surviving Q(j,k) come through bit-identical, in private storage and in
// an arena slot alike. Folding w into the entries on the way would round
// them, and Q(j,k) = (t(j,k)−t(j,j))·w would move in the last place. The
// arena starts at capM = m, so the first AddAction regrows (a stride
// change) and the second fits in place.
func TestChurnKeepsSurvivingRegrets(t *testing.T) {
	const m0 = 7
	for _, resident := range []bool{false, true} {
		l := MustNew(arenaTestConfig(m0))
		if resident {
			NewArena(m0).Adopt(l)
		}
		r := xrand.New(31)
		play := func() {
			for range 40 {
				if err := l.Update(l.Select(r), r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if !(l.w < 1) {
				t.Fatalf("resident=%v: decay weight %g did not decay", resident, l.w)
			}
		}
		// check requires after's Q(j,k) to equal before's Q(from(j),from(k))
		// for every surviving pair (from returns -1 for a new action, whose
		// row and column must read zero).
		check := func(op string, w float64, before [][]float64, from func(int) int) {
			t.Helper()
			if l.w != w {
				t.Fatalf("resident=%v %s: decay weight %g, want %g unchanged", resident, op, l.w, w)
			}
			after := regrets(l)
			for j := range after {
				for k := range after[j] {
					want := 0.0
					if fj, fk := from(j), from(k); fj >= 0 && fk >= 0 {
						want = before[fj][fk]
					}
					if after[j][k] != want {
						t.Fatalf("resident=%v %s: Q(%d,%d) = %v, want %v", resident, op, j, k, after[j][k], want)
					}
				}
			}
		}
		play()
		for range 2 {
			w, before, m := l.w, regrets(l), l.NumActions()
			l.AddAction()
			check("AddAction", w, before, func(j int) int {
				if j == m {
					return -1
				}
				return j
			})
			play()
		}
		for _, pick := range []func(m int) int{
			func(int) int { return 0 },
			func(m int) int { return m / 2 },
			func(m int) int { return m - 1 },
		} {
			w, before := l.w, regrets(l)
			k := pick(l.NumActions())
			l.RemoveAction(k)
			check(fmt.Sprintf("RemoveAction(%d)", k), w, before, func(j int) int {
				if j >= k {
					return j + 1
				}
				return j
			})
			play()
		}
	}
}

// poisonPadding writes NaN into every slab float outside the resident
// learners' live rows and columns: the stride padding of each row, the
// slot tail past the last row, and every free slot.
func poisonPadding(a *Arena) {
	liveT := make([]bool, len(a.t))
	liveP := make([]bool, len(a.probs))
	for _, l := range a.handles {
		for j := 0; j < l.m; j++ {
			for k := 0; k < l.m; k++ {
				liveT[l.slot*a.tStride+j*l.stride+k] = true
			}
			liveP[l.slot*a.pStride+j] = true
		}
	}
	for i, live := range liveT {
		if !live {
			a.t[i] = math.NaN()
		}
	}
	for i, live := range liveP {
		if !live {
			a.probs[i] = math.NaN()
		}
	}
}

// Nothing outside a learner's live m×m block is ever read: with every
// other slab float set to NaN (after Arena.New, after a RemoveAction and
// after a stride-changing regrow), a churning resident learner stays
// bit-identical to its private twin and reports no NaN.
func TestArenaPaddingNeverRead(t *testing.T) {
	const m0 = 5
	a := NewArena(m0)
	neighbour, err := a.New(arenaTestConfig(m0 + 2)) // regrows, then shares the slab
	if err != nil {
		t.Fatal(err)
	}
	l, err := a.New(arenaTestConfig(m0))
	if err != nil {
		t.Fatal(err)
	}
	twin := MustNew(arenaTestConfig(m0))
	seed := uint64(41)
	drive := func(point string) {
		t.Helper()
		poisonPadding(a)
		seed++
		driveChurn(t, l, seed, 600, m0)
		driveChurn(t, twin, seed, 600, m0)
		sameState(t, point, twin, l)
		for _, p := range l.Probabilities() {
			if math.IsNaN(p) {
				t.Fatalf("%s: Probabilities read padding: %v", point, l.Probabilities())
			}
		}
		for j := 0; j < l.NumActions(); j++ {
			for k := 0; k < l.NumActions(); k++ {
				if math.IsNaN(l.Regret(j, k)) {
					t.Fatalf("%s: Regret(%d,%d) read padding", point, j, k)
				}
			}
		}
		if math.IsNaN(l.MaxRegret()) {
			t.Fatalf("%s: MaxRegret read padding", point)
		}
	}
	drive("after Arena.New")
	l.RemoveAction(1)
	twin.RemoveAction(1)
	drive("after RemoveAction")
	for stride := l.stride; l.stride == stride; {
		l.AddAction()
		twin.AddAction()
	}
	drive("after a stride-changing resize")
	a.Discard(neighbour) // compaction moves l into slot 0
	drive("after compaction")
}

// FuzzLearnerChurn drives arena-resident learners and their private twins
// through one decoded stream of operations and requires, after every
// operation, that each resident learner's logical state is bit-identical
// to its twin's and that its strategy is a simplex above its exploration
// floor. The arena starts at capM = 2, so additions and wide arrivals
// change the row stride often. Each operation is two bytes: the first
// picks the operation (mod 6) and the learner (the rest of the byte), the
// second is the operation's argument.
//
//	0 Select+Update with utility b/255   3 Discard a learner (compaction)
//	1 AddAction                          4 Arena.New with 1+b%maxM actions
//	2 RemoveAction(b mod m)              5 Release then Adopt (to the last slot)
func FuzzLearnerChurn(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxM, maxLearners, maxOps = 24, 8, 256
		// Longer streams only repeat the same moves; capping them keeps
		// every execution, and the minimization of a failing one, fast.
		ops = ops[:min(len(ops), 2*maxOps)]
		cfg := arenaTestConfig(3)
		delta := cfg.Exploration
		a := NewArena(2)
		first, err := a.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		learners, twins := []*Learner{first}, []*Learner{MustNew(cfg)}
		// floors[i] is the probability every action of learner i is
		// guaranteed: δ/m after an Update, scaled by each AddAction's
		// rescale, and kept by RemoveAction's renormalization.
		floors := []float64{delta / 3}
		r := xrand.New(7)
		for i := 0; i+1 < len(ops); i += 2 {
			op, b := ops[i]%6, ops[i+1]
			x := int(ops[i]/6) % len(learners)
			l, twin := learners[x], twins[x]
			switch op {
			case 0:
				act := l.Select(r)
				twin.ForceAction(act)
				u := float64(b) / 255
				if err := l.Update(act, u); err != nil {
					t.Fatal(err)
				}
				if err := twin.Update(act, u); err != nil {
					t.Fatal(err)
				}
				floors[x] = delta / float64(l.NumActions())
			case 1:
				if l.NumActions() < maxM {
					l.AddAction()
					twin.AddAction()
					nm := float64(l.NumActions())
					floors[x] = min(floors[x]*(1-delta/nm), delta/nm)
				}
			case 2:
				if m := l.NumActions(); m > 1 {
					l.RemoveAction(int(b) % m)
					twin.RemoveAction(int(b) % m)
				}
			case 3:
				if x > 0 {
					a.Discard(l)
					learners = append(learners[:x], learners[x+1:]...)
					twins = append(twins[:x], twins[x+1:]...)
					floors = append(floors[:x], floors[x+1:]...)
				}
			case 4:
				if len(learners) < maxLearners {
					c := arenaTestConfig(1 + int(b)%maxM)
					nl, err := a.New(c)
					if err != nil {
						t.Fatal(err)
					}
					learners = append(learners, nl)
					twins = append(twins, MustNew(c))
					floors = append(floors, delta/float64(c.NumActions))
				}
			case 5:
				a.Release(l)
				a.Adopt(l)
			}
			if a.Len() != len(learners) {
				t.Fatalf("op %d: arena holds %d learners, want %d", i/2, a.Len(), len(learners))
			}
			for y, l := range learners {
				name := fmt.Sprintf("op %d (%d on learner %d): learner %d", i/2, op, x, y)
				if !a.Contains(l) {
					t.Fatalf("%s: no longer resident", name)
				}
				sameState(t, name, twins[y], l)
				p, sum := l.Probabilities(), 0.0
				for k, v := range p {
					if !(v >= floors[y]-1e-12) {
						t.Fatalf("%s: p[%d] = %g below its floor %g: %v", name, k, v, floors[y], p)
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s: probabilities sum to %v", name, sum)
				}
			}
		}
	})
}

// BenchmarkLearnerChurn times helper churn at the learner layer, without
// stage noise: one op is an AddAction then a RemoveAction(k) on each of
// 256 arena-resident learners, with a Select+Update after each edit so
// every edit meets a decay weight w < 1. m covers the deep-views view size
// (16), the largest faults-live channel (68) and a full view of H = 256;
// k at 0, m/2 and m (the action just added) spans the removal's
// O(m·(m−k)) cost, while the addition is O(m) at every k.
func BenchmarkLearnerChurn(b *testing.B) {
	const n = 256
	for _, m := range []int{16, 68, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a := NewArena(m + 1) // the add-before-remove transient fits
			a.Reserve(n)
			ls := make([]*Learner, n)
			r := xrand.New(1)
			step := func(l *Learner) {
				if err := l.Update(l.Select(r), r.Float64()); err != nil {
					b.Fatal(err)
				}
			}
			for i := range ls {
				l, err := a.New(arenaTestConfig(m))
				if err != nil {
					b.Fatal(err)
				}
				step(l)
				ls[i] = l
			}
			for _, k := range []int{0, m / 2, m} {
				b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
					for b.Loop() {
						for _, l := range ls {
							l.AddAction()
							step(l)
							l.RemoveAction(k)
							step(l)
						}
					}
				})
			}
		})
	}
}
