package regret

import (
	"fmt"
	"slices"
	"testing"

	"rths/internal/xrand"
)

func arenaTestConfig(m int) Config {
	return Config{NumActions: m, StepSize: 0.02, Exploration: 0.05, Mu: 0.1, Mode: ModeTracking}
}

// driveChurn replays the same select/update/churn trajectory on a learner
// using a private RNG clone. Every 97 stages the action set churns (grow
// until 2·m0, then shrink), so in-slot edits, slot regrows and
// probability renormalizations all run many times over the horizon. Each
// churn event makes several edits with no Update between them, all at the
// same decay weight w < 1, and the removals hit index 0, index m−1 and
// random indices.
func driveChurn(t *testing.T, l *Learner, seed uint64, stages, m0 int) {
	t.Helper()
	r := xrand.New(seed)
	for s := 0; s < stages; s++ {
		if s > 0 && s%97 == 0 {
			if l.NumActions() < 2*m0 {
				l.AddAction()
				l.AddAction()
				l.RemoveAction(r.Intn(l.NumActions()))
			} else {
				l.RemoveAction(r.Intn(l.NumActions()))
				l.RemoveAction(l.NumActions() - 1)
				l.RemoveAction(0)
				for l.NumActions() > m0 {
					l.RemoveAction(r.Intn(l.NumActions()))
				}
			}
		}
		a := l.Select(r)
		if err := l.Update(a, r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// sameState fails the test unless got holds exactly want's learner state:
// every logical entry (j,k) read through each learner's own row stride,
// the decay weight, and the strategy.
func sameState(t *testing.T, name string, want, got *Learner) {
	t.Helper()
	if want.m != got.m || want.stage != got.stage || want.last != got.last {
		t.Fatalf("%s: shape diverged: m %d vs %d, stage %d vs %d, last %d vs %d",
			name, want.m, got.m, want.stage, got.stage, want.last, got.last)
	}
	if want.w != got.w {
		t.Fatalf("%s: decay weight diverged: %g vs %g", name, want.w, got.w)
	}
	for j := 0; j < want.m; j++ {
		for k := 0; k < want.m; k++ {
			if w, g := want.t[j*want.stride+k], got.t[j*got.stride+k]; w != g {
				t.Fatalf("%s: t(%d,%d) diverged: %g vs %g", name, j, k, w, g)
			}
		}
	}
	for i := range want.probs {
		if want.probs[i] != got.probs[i] {
			t.Fatalf("%s: probs[%d] diverged: %g vs %g", name, i, want.probs[i], got.probs[i])
		}
	}
}

// An arena-resident learner must realize the exact trajectory of its
// private-storage twin: adoption moves bytes, never arithmetic. So must an
// arena-born one (Arena.New), which starts in exactly New's state even in
// a slot a previous occupant left dirty. The churn schedule grows the
// action set past the arena's initial capacity, so the slot regrow path
// is exercised too.
func TestArenaResidentMatchesPrivate(t *testing.T) {
	const stages = 1500
	for _, m0 := range []int{3, 8} {
		private := MustNew(arenaTestConfig(m0))
		resident := MustNew(arenaTestConfig(m0))
		a := NewArena(m0) // deliberately tight: AddAction forces growTo
		a.Adopt(resident)
		dirty, err := a.New(arenaTestConfig(m0))
		if err != nil {
			t.Fatal(err)
		}
		driveChurn(t, dirty, 7, 300, m0)
		a.Discard(dirty)
		born, err := a.New(arenaTestConfig(m0)) // reuses the dirty slot
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, fmt.Sprintf("m0=%d fresh born", m0), private, born)
		driveChurn(t, private, 11, stages, m0)
		driveChurn(t, resident, 11, stages, m0)
		driveChurn(t, born, 11, stages, m0)
		sameState(t, fmt.Sprintf("m0=%d adopted", m0), private, resident)
		sameState(t, fmt.Sprintf("m0=%d born", m0), private, born)
	}
}

// Arena.New validates and defaults its config exactly like New.
func TestArenaNewValidates(t *testing.T) {
	a := NewArena(4)
	bad := arenaTestConfig(4)
	bad.StepSize = 0
	if _, err := a.New(bad); err == nil {
		t.Fatal("Arena.New accepted StepSize 0")
	}
	if a.Len() != 0 {
		t.Fatalf("rejected Arena.New left %d slots", a.Len())
	}
	cfg := arenaTestConfig(4)
	cfg.Mode = 0
	l, err := a.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Mode() != ModeTracking || !a.Contains(l) {
		t.Fatalf("Arena.New: mode %v, resident %v", l.Mode(), a.Contains(l))
	}
}

// Release must hand the learner back fully functional private storage and
// keep the arena dense (swap-with-last compaction): after any release
// sequence, Len() occupied slots remain, every survivor still resident,
// and every learner — released or resident — continues on the exact
// trajectory of an undisturbed twin.
func TestArenaReleaseCompacts(t *testing.T) {
	const n, m0 = 32, 4
	a := NewArena(m0)
	twins := make([]*Learner, n)
	subjects := make([]*Learner, n)
	for i := range subjects {
		twins[i] = MustNew(arenaTestConfig(m0))
		subjects[i] = MustNew(arenaTestConfig(m0))
		a.Adopt(subjects[i])
		// Differentiate the learners so slot moves carry distinct state.
		driveChurn(t, twins[i], uint64(100+i), 50+i, m0)
		driveChurn(t, subjects[i], uint64(100+i), 50+i, m0)
	}
	// Release every third learner (front, middle, back included).
	released := map[int]bool{}
	for i := 0; i < n; i += 3 {
		a.Release(subjects[i])
		released[i] = true
	}
	if want := n - len(released); a.Len() != want {
		t.Fatalf("arena holds %d slots after releases, want %d", a.Len(), want)
	}
	for i, l := range subjects {
		if got := a.Contains(l); got == released[i] {
			t.Fatalf("learner %d residency = %v, released = %v", i, got, released[i])
		}
	}
	// Everyone — moved, released, untouched — continues identically.
	for i := range subjects {
		driveChurn(t, twins[i], uint64(500+i), 300, m0)
		driveChurn(t, subjects[i], uint64(500+i), 300, m0)
		for j := range twins[i].probs {
			if twins[i].probs[j] != subjects[i].probs[j] {
				t.Fatalf("learner %d (released=%v) diverged after compaction", i, released[i])
			}
		}
	}
	// Double release is a harmless no-op.
	a.Release(subjects[0])
	if a.Len() != n-len(released) {
		t.Fatal("double Release changed the arena")
	}
}

// Discard compacts like Release but skips the copy-out: the survivors'
// trajectories are untouched, the discarded learner is left unusable,
// and the operation itself allocates nothing — the contract the
// peer-departure path (including every cluster channel switch) rides.
func TestArenaDiscardCompactsWithoutAllocating(t *testing.T) {
	const n, m0 = 24, 4
	a := NewArena(m0)
	twins := make([]*Learner, n)
	subjects := make([]*Learner, n)
	for i := range subjects {
		twins[i] = MustNew(arenaTestConfig(m0))
		subjects[i] = MustNew(arenaTestConfig(m0))
		a.Adopt(subjects[i])
		driveChurn(t, twins[i], uint64(40+i), 30+i, m0)
		driveChurn(t, subjects[i], uint64(40+i), 30+i, m0)
	}
	discarded := map[int]bool{}
	for i := 0; i < n; i += 3 {
		l := subjects[i]
		if got := testing.AllocsPerRun(1, func() { a.Discard(l) }); got != 0 {
			t.Fatalf("Discard allocates %g objects, want 0", got)
		}
		discarded[i] = true
		if a.Contains(l) || l.t != nil || l.probs != nil || l.NumActions() != 0 {
			t.Fatalf("learner %d still holds storage or actions after Discard", i)
		}
	}
	if want := n - len(discarded); a.Len() != want {
		t.Fatalf("arena holds %d slots after discards, want %d", a.Len(), want)
	}
	// Survivors — moved by compaction or not — continue bit-identically.
	for i := range subjects {
		if discarded[i] {
			continue
		}
		driveChurn(t, twins[i], uint64(900+i), 200, m0)
		driveChurn(t, subjects[i], uint64(900+i), 200, m0)
		for j := range twins[i].probs {
			if twins[i].probs[j] != subjects[i].probs[j] {
				t.Fatalf("survivor %d diverged after Discard compaction", i)
			}
		}
	}
	// Discarding a non-resident (already discarded or private) learner
	// just nils its slices.
	a.Discard(subjects[0])
	priv := MustNew(arenaTestConfig(m0))
	a.Discard(priv)
	if priv.t != nil || a.Len() != n-len(discarded) {
		t.Fatal("Discard of a non-resident learner touched the arena")
	}
}

// Cross-arena moves must be explicit: adopting a learner resident
// elsewhere panics rather than silently corrupting two arenas.
func TestArenaCrossAdoptPanics(t *testing.T) {
	a, b := NewArena(4), NewArena(4)
	l := MustNew(arenaTestConfig(4))
	a.Adopt(l)
	a.Adopt(l) // same-arena re-adopt is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("cross-arena Adopt did not panic")
		}
	}()
	b.Adopt(l)
}

// Steady-state Select/Update on a resident learner stays allocation-free,
// and so do in-slot AddAction/RemoveAction once the arena capacity covers
// the transient (the add-then-remove swap the view refresh performs) —
// the property that makes churn-heavy view refresh stages allocation-free
// in the engine.
func TestArenaZeroAllocs(t *testing.T) {
	const m = 8
	a := NewArena(m + 1) // +1 headroom: the add-before-remove transient
	l := MustNew(arenaTestConfig(m))
	a.Adopt(l)
	r := xrand.New(3)
	for s := 0; s < 64; s++ {
		if err := l.Update(l.Select(r), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.Update(l.Select(r), 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident Select+Update allocates %g/stage, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		l.AddAction()
		l.RemoveAction(l.MinProbAction())
		if err := l.Update(l.Select(r), 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-slot AddAction+RemoveAction allocates %g/cycle, want 0", allocs)
	}
}

// The slot strides must be cache-line multiples, so every slot keeps its
// slab's alignment (PERF.md's arena section), and SlotBytes must account
// for both slabs.
func TestArenaSlotGeometry(t *testing.T) {
	for _, capM := range []int{1, 4, 16, 100, 256} {
		a := NewArena(capM)
		if a.tStride%cacheLineFloats != 0 || a.pStride%cacheLineFloats != 0 {
			t.Fatalf("capM=%d: strides %d/%d not cache-line aligned", capM, a.tStride, a.pStride)
		}
		if a.tStride < capM*capM || a.pStride < capM {
			t.Fatalf("capM=%d: strides %d/%d too small", capM, a.tStride, a.pStride)
		}
		if a.SlotBytes() != (a.tStride+a.pStride)*8 {
			t.Fatalf("capM=%d: SlotBytes inconsistent", capM)
		}
	}
}

// Helper arrivals and join/leave churn must keep the slabs sized to the
// live need: after every wave capM is within an eighth (at least one
// action) of the largest live action set, and the slabs hold at most a
// quarter more slots than there are learners (plus one). A 64-learner
// arena grows from 4 to 40 actions the way core.AddHelper drives it, one
// AddAction per learner per helper, with leaves and joins in between, and
// every learner keeps its private twin's exact state through the regrows.
func TestArenaSlabsTrackLiveNeed(t *testing.T) {
	const n, m0, mMax = 64, 4, 40
	a := NewArena(m0)
	r := xrand.New(21)
	var subjects, twins []*Learner
	// play runs a few stages on a learner and its twin from one seed, so
	// slot moves and regrows carry distinct state.
	play := func(i int, seed uint64) {
		for _, l := range []*Learner{subjects[i], twins[i]} {
			pr := xrand.New(seed)
			for range 3 {
				if err := l.Update(l.Select(pr), pr.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check := func(wave string, m int) {
		t.Helper()
		live := 0
		for i, l := range subjects {
			sameState(t, fmt.Sprintf("m=%d %s: learner %d", m, wave, i), twins[i], l)
			live = max(live, l.NumActions())
		}
		if limit := live + max(1, live/8); a.CapM() > limit {
			t.Fatalf("m=%d %s: capM %d for a live max of %d actions, want <= %d", m, wave, a.CapM(), live, limit)
		}
		slots, limit := len(a.t)/a.tStride, a.Len()+a.Len()/4+1
		if slots > limit || len(a.probs)/a.pStride != slots {
			t.Fatalf("m=%d %s: slabs hold %d/%d slots for %d learners, want <= %d",
				m, wave, slots, len(a.probs)/a.pStride, a.Len(), limit)
		}
	}
	for m := m0; m < mMax; m++ {
		// Leaves: the oldest learner, the newest and a random one.
		for _, pick := range []func(int) int{
			func(int) int { return 0 },
			func(k int) int { return k - 1 },
			r.Intn,
		} {
			if len(subjects) == 0 {
				break
			}
			k := pick(len(subjects))
			a.Discard(subjects[k])
			subjects = slices.Delete(subjects, k, k+1)
			twins = slices.Delete(twins, k, k+1)
		}
		// A join wave back to n learners at the current action count.
		for len(subjects) < n {
			l, err := a.New(arenaTestConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			subjects = append(subjects, l)
			twins = append(twins, MustNew(arenaTestConfig(m)))
			play(len(subjects)-1, r.Uint64())
		}
		check("join wave", m)
		// A helper arrives: every learner gains an action, then plays.
		for i := range subjects {
			subjects[i].AddAction()
			twins[i].AddAction()
			play(i, r.Uint64())
		}
		check("helper wave", m+1)
	}
}
