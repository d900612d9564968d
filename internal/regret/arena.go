package regret

// Arena is a struct-of-arrays store for resident learners: every adopted
// or arena-born (Arena.New) Learner's proxy matrix and probability vector
// live in two contiguous float64 slabs (one slot per learner), so the
// select/feedback passes walk dense memory instead of chasing
// per-learner heap allocations. The Learner stays the owner of all scalar
// state (decay weight, stage, hot constants); residency only points its
// t/probs slice headers into the slabs and sets its row stride, which keeps
// Select/Update/recomputeProbs — and therefore the realized trajectories
// — bit-identical to private-storage learners.
//
// Slots are compacted on release (swap-with-last), so the slabs stay dense
// under arbitrary join/leave churn: len(handles) live slots, no holes.
// Slot strides are rounded up to whole cache lines, so every slot keeps
// its slab's alignment and no two learners share a line. Inside a slot the
// matrix rows sit at stride capM, not m, so growing an action set never
// moves a row: AddAction writes one new column entry per row plus the new
// row, RemoveAction(k) moves only the entries after row and column k, and
// only a regrow (resize) changes the stride.
//
// An Arena is not safe for concurrent structural edits (Adopt, Release,
// growth); the owning System serializes those between stages. Concurrent
// Select/Update on *distinct* resident learners is safe — they touch
// disjoint slab regions.
type Arena struct {
	capM    int // largest action-set size a slot holds without regrowing
	tStride int // float64s per slot in the matrix slab (>= capM²)
	pStride int // float64s per slot in the probability slab (>= capM)
	t       []float64
	probs   []float64
	handles []*Learner // resident learners in slot order (dense)
}

// cacheLineFloats is the slot-stride rounding unit: 8 float64s = 64 bytes,
// one cache line, so every slot starts on a line boundary when its slab
// does.
const cacheLineFloats = 8

func roundCacheLine(n int) int {
	return (n + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
}

func arenaStrides(capM int) (tStride, pStride int) {
	return roundCacheLine(capM * capM), roundCacheLine(capM)
}

// NewArena builds an empty arena whose slots hold learners with up to capM
// actions; it regrows automatically (moving every slot to the wider row
// stride) when a resident learner outgrows that. capM is clamped into [1, maxActions].
func NewArena(capM int) *Arena {
	if capM < 1 {
		capM = 1
	}
	if capM > maxActions {
		capM = maxActions
	}
	a := &Arena{capM: capM}
	a.tStride, a.pStride = arenaStrides(capM)
	return a
}

// Len returns the number of resident learners (== occupied slots; the
// slabs have no holes).
func (a *Arena) Len() int { return len(a.handles) }

// CapM returns the largest action-set size a slot currently holds without
// a regrow.
func (a *Arena) CapM() int { return a.capM }

// SlotBytes returns the slab bytes one resident learner occupies (both
// slabs, stride-rounded) — the arena cost model PERF.md documents.
func (a *Arena) SlotBytes() int { return (a.tStride + a.pStride) * 8 }

// Contains reports whether l is resident in this arena.
func (a *Arena) Contains(l *Learner) bool { return l.arena == a }

// Adopt moves a learner's state into the arena: its matrix and probability
// vector are copied into the next free slot and the learner's slice
// headers re-pointed at the slabs. All arithmetic state is preserved
// exactly, so the learner's future trajectory is unchanged. Adopting a
// learner already resident here is a no-op; a learner resident in another
// arena must be Released first (panics otherwise).
func (a *Arena) Adopt(l *Learner) {
	if l.arena == a {
		return
	}
	if l.arena != nil {
		panic("regret: Adopt of a learner resident in another arena")
	}
	t, probs, stride := l.t, l.probs, l.stride
	a.place(l)
	copyRows(l.t, l.stride, t, stride, l.m)
	copy(l.probs, probs)
}

// New builds a fresh learner directly in the next free slot, with exactly
// the state New followed by Adopt gives (zero proxy matrix, uniform
// strategy, w = 1, no pending selection) but without the private matrix
// and probability vector that Adopt would copy in and drop. The slot may
// hold a previous occupant's bytes, so its live region is written in
// full. Same config validation and defaults as the package New.
func (a *Arena) New(cfg Config) (*Learner, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	l := &Learner{cfg: cfg, m: cfg.NumActions, w: 1, last: -1}
	a.place(l)
	clear(l.t)
	for i := range l.probs {
		l.probs[i] = 1 / float64(l.m)
	}
	l.sizeConstants()
	return l, nil
}

// place makes l, sized l.m, resident in the next free slot (regrowing the
// slabs if needed) and binds its slice headers there. The slot's previous
// contents are left for the caller to overwrite.
func (a *Arena) place(l *Learner) {
	a.growTo(l.m)
	l.arena, l.slot = a, len(a.handles)
	a.ensureSlots(l.slot + 1)
	a.handles = append(a.handles, l)
	a.bind(l)
}

// Release moves a resident learner's state back out to private heap
// storage (the learner keeps working, just without the arena layout) and
// compacts the freed slot by moving the last occupied slot into it —
// swap-with-last keeps the slabs dense under churn. Releasing a learner
// that is not resident anywhere is a no-op; releasing one resident in a
// different arena panics.
func (a *Arena) Release(l *Learner) {
	if l.arena == nil {
		return
	}
	if l.arena != a {
		panic("regret: Release of a learner resident in another arena")
	}
	slot := l.slot
	t := make([]float64, l.m*l.m)
	copyRows(t, l.m, l.t, l.stride, l.m)
	p := make([]float64, l.m)
	copy(p, l.probs)
	l.t, l.stride, l.probs = t, l.m, p
	l.arena, l.slot = nil, 0
	a.compact(slot)
}

// bind re-derives l's slice headers from its slot and current size, and
// its row stride from capM. The three-index slice caps both views at the
// slot boundary so no in-place edit or reslice can cross into a
// neighbouring learner's slot.
//
//rths:hotpath
func (a *Arena) bind(l *Learner) {
	off := l.slot * a.tStride
	l.t = a.t[off : off+l.m*a.capM : off+a.tStride]
	l.stride = a.capM
	poff := l.slot * a.pStride
	l.probs = a.probs[poff : poff+l.m : poff+a.pStride]
}

// Discard releases a resident learner that is about to be destroyed: the
// slot is compacted exactly like Release, but the state is not copied out
// to fresh private storage — the learner's slices are nilled and its
// action count zeroed, leaving it permanently unusable: Select returns
// -1, Update rejects every action, and NumActions reports 0, so a size
// check against a live action set rejects it. The peer-removal path uses this: a
// removed peer's selector is dead by contract, and skipping the copy-out
// keeps departure churn (including every cluster channel switch, which is
// remove + fresh add) allocation-free on the departing side. Discarding a
// non-resident learner only nils its slices and zeroes its action count;
// a learner resident in a different arena panics.
func (a *Arena) Discard(l *Learner) {
	if l.arena != nil {
		if l.arena != a {
			panic("regret: Discard of a learner resident in another arena")
		}
		a.compact(l.slot)
		l.arena, l.slot = nil, 0
	}
	l.t, l.probs, l.m = nil, nil, 0
}

// compact frees the given slot by moving the last occupied slot's data
// into it (swap-with-last), keeping the slabs dense.
func (a *Arena) compact(slot int) {
	lastIdx := len(a.handles) - 1
	last := a.handles[lastIdx]
	a.handles[lastIdx] = nil
	a.handles = a.handles[:lastIdx]
	if slot != lastIdx {
		copy(a.t[slot*a.tStride:], last.t)
		copy(a.probs[slot*a.pStride:], last.probs)
		last.slot = slot
		a.handles[slot] = last
		a.bind(last)
	}
}

// Reserve pre-sizes the slabs for at least n resident learners, so a
// known-size adoption wave (system construction, a replayed join burst)
// allocates its slabs once instead of regrowing through it. No-op when
// capacity is already sufficient.
func (a *Arena) Reserve(n int) {
	if n*a.tStride > len(a.t) {
		a.resize(a.capM, n)
	}
}

// ensureSlots grows the slabs to hold at least n slots plus a quarter: a
// join burst regrows once per ~n/4 adoptions, so each join pays about
// four slot copies amortized, and a regrow leaves at most a fifth of the
// slots idle. Cold path: runs only on adoption beyond current capacity.
func (a *Arena) ensureSlots(n int) {
	if n*a.tStride > len(a.t) {
		a.resize(a.capM, n+n/4)
	}
}

// growTo raises capM to m plus an eighth (at least one action) and sizes
// the slabs for the live slots plus a quarter. A full-view channel then
// regrows once per ~m/8 helper arrivals at O(m²) per learner, which
// amortizes to O(m) per learner per arrival: the order of the arrival's
// own in-slot AddAction. capM never shrinks: detector evict/readmit churn
// would make a shrinking slab regrow over and over. The slot layout never
// affects the learners' arithmetic, so any growth policy is
// determinism-safe. Cold path.
func (a *Arena) growTo(m int) {
	if m > a.capM {
		n := len(a.handles)
		a.resize(min(m+max(1, m/8), maxActions), n+n/4)
	}
}

// resize moves the arena to fresh slabs of the given slot count at capM's
// strides: every resident learner's live rows are copied into its slot at
// row stride capM and its slice headers rebound (the old headers point
// into the dropped slabs). It is the only path that changes a resident
// learner's row stride.
func (a *Arena) resize(capM, slots int) {
	a.capM = capM
	a.tStride, a.pStride = arenaStrides(capM)
	a.t = make([]float64, slots*a.tStride)
	a.probs = make([]float64, slots*a.pStride)
	for _, l := range a.handles {
		copyRows(a.t[l.slot*a.tStride:], capM, l.t, l.stride, l.m)
		copy(a.probs[l.slot*a.pStride:], l.probs)
		a.bind(l)
	}
}
