// Package regret implements the paper's learning algorithms: regret
// matching (Hart & Mas-Colell), the paper's regret-tracking helper
// selection (RTHS, Algorithm 1), and its recursive re-expression (R2HS,
// Algorithm 2). The learners are deliberately decoupled from streaming —
// they see only their own actions and bandit utility feedback, mirroring
// the "zero-knowledge / opaque feedback" setting of the paper (§III.B).
//
// # Stage protocol
//
// Each simulation stage, the owner of a Learner must:
//
//  1. call Select to sample an action from the current mixed strategy,
//  2. play it and observe the realized utility, then
//  3. call Update(action, utility) exactly once.
//
// Update maintains the proxy-regret state (eq. 3-2/3-3 via the T-matrix
// recursion of eq. 3-4..3-6) and recomputes the mixed strategy for the next
// stage with the μ-normalized, δ-explored rule of Algorithms 1–2:
//
//	p(k) = (1-δ)·min{ Q(j,k)/μ , 1/(m-1) } + δ/m   for k ≠ j
//	p(j) = 1 - Σ_{k≠j} p(k)
//
// which keeps every action probability at least δ/m — the exploration floor
// the importance-weighted proxy estimates require.
//
// # Fidelity note (DESIGN.md §4.1)
//
// The paper's eq. (3-5) accumulates T without decay yet defines Q through
// exponentially weighted sums (eq. 3-3). ModeTracking implements the
// mathematically consistent recursion T ← (1-ε)T + increment, which makes
// ε·T exactly the recency-weighted sums of eq. (3-3). The literal update is
// available as ModePaperExact for the A4 ablation, and ModeMatching gives
// the uniform-averaging regret-matching baseline.
package regret

import (
	"fmt"
	"math"

	"rths/internal/xrand"
)

// Mode selects the averaging scheme of a Learner.
type Mode int

// Averaging modes.
const (
	// ModeTracking is RTHS/R2HS: exponential recency-weighted averaging
	// with constant step size ε (the paper's contribution).
	ModeTracking Mode = iota + 1
	// ModeMatching is classic regret matching: uniform averaging over the
	// whole history (the Hart & Mas-Colell baseline, ablation A2).
	ModeMatching
	// ModePaperExact is the literal eq. (3-5) recursion — cumulative T with
	// no decay, still multiplied by ε in eq. (3-6). Kept for ablation A4.
	ModePaperExact
)

func (m Mode) String() string {
	switch m {
	case ModeTracking:
		return "tracking"
	case ModeMatching:
		return "matching"
	case ModePaperExact:
		return "paper-exact"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Learner. Zero values are invalid; use Defaults to
// start from the experiment defaults.
type Config struct {
	// NumActions is the initial size of the action set (helpers in view).
	NumActions int
	// StepSize is ε ∈ (0,1]: the exponential averaging constant. Larger
	// values track faster but with more variance.
	StepSize float64
	// Exploration is δ ∈ (0,1): the probability floor mixed into the play
	// probabilities. Every action keeps probability >= δ/m.
	Exploration float64
	// Mu is the μ normalization constant of the probability update. It
	// should dominate (m-1)·(largest plausible regret); smaller values make
	// switching more aggressive.
	Mu float64
	// Mode selects the averaging scheme; defaults to ModeTracking.
	Mode Mode
}

// Defaults returns the configuration used throughout the experiments for a
// given action-set size and utility scale (the maximum plausible stage
// utility, e.g. the largest helper bandwidth when utilities are raw rates,
// or 1.0 when the caller normalizes). The constants were calibrated
// empirically on the paper's small-scale scenario (N=10, H=4; see
// EXPERIMENTS.md): ε=0.02 gives a ~50-stage tracking window, δ=0.05 keeps
// a 1.25% floor per helper at H=4, and μ at a twentieth of the
// (m-1)·scale bound makes switching decisive without oscillation. The
// welfare and fairness results are flat across a wide band around these
// values (ablation A3), so they are defaults rather than magic.
func Defaults(numActions int, utilityScale float64) Config {
	return Config{
		NumActions:  numActions,
		StepSize:    0.02,
		Exploration: 0.05,
		Mu:          float64(maxInt(numActions-1, 1)) * utilityScale * 0.05,
		Mode:        ModeTracking,
	}
}

// maxActions bounds the action-set (helper-view) size. The O(m²) proxy
// matrix makes very large views expensive anyway; 1024 actions is 8 MiB of
// state per learner and far beyond any helper view in the paper's setting.
const maxActions = 1024

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// normalize fills the config's defaults (Mode 0 is ModeTracking) and
// validates the result — the shared front half of New and Arena.New.
func (c Config) normalize() (Config, error) {
	if c.Mode == 0 {
		c.Mode = ModeTracking
	}
	return c, c.validate()
}

func (c Config) validate() error {
	if c.NumActions <= 0 {
		return fmt.Errorf("regret: NumActions=%d", c.NumActions)
	}
	if c.NumActions > maxActions {
		return fmt.Errorf("regret: NumActions=%d exceeds %d", c.NumActions, maxActions)
	}
	if !(c.StepSize > 0 && c.StepSize <= 1) {
		return fmt.Errorf("regret: StepSize=%g outside (0,1]", c.StepSize)
	}
	if !(c.Exploration > 0 && c.Exploration < 1) {
		return fmt.Errorf("regret: Exploration=%g outside (0,1)", c.Exploration)
	}
	if !(c.Mu > 0) || math.IsInf(c.Mu, 0) {
		return fmt.Errorf("regret: Mu=%g must be positive and finite", c.Mu)
	}
	switch c.Mode {
	case ModeTracking, ModeMatching, ModePaperExact:
	default:
		return fmt.Errorf("regret: invalid mode %d", int(c.Mode))
	}
	return nil
}

// Learner is the R2HS learner (Algorithm 2): O(m²) state, O(m) per-stage
// update. It also hosts the regret-matching baseline and the paper-exact
// ablation via Config.Mode. Not safe for concurrent use.
//
// The tracking-mode decay T ← (1-ε)T is applied lazily: instead of scaling
// all m² entries every stage, the learner keeps a scalar weight w = Π(1-ε)
// and stores T/w, so an Update touches only the played action's column
// (O(m)). The true matrix is recovered as t·w at read time, and w is folded
// back into t only when it underflows renormFloor, so the stored values
// stay finite for arbitrarily long runs. Every stored entry shares the one
// w, so action-set churn (AddAction, RemoveAction) only moves entries and
// w carries over unchanged. The arithmetic agrees with the eager recursion
// to within floating-point rounding (see equivalence_test.go).
type Learner struct {
	cfg Config
	m   int // current number of actions
	// t holds the scaled proxy matrix row-major, m rows at the given stride,
	// of which the first m columns are live: true T(j,k) = t[j·stride+k]·w.
	t      []float64
	stride int       // row stride of t: m in private storage, the arena's capM in a slot
	w      float64   // lazy decay weight; 1 for non-tracking modes
	probs  []float64 // current mixed strategy p^n
	stage  int       // completed updates
	last   int       // last action returned by Select, -1 before first

	// Hot-path constants, recomputed only when m changes: the probability
	// update runs once per peer per stage, and divisions dominate its cost.
	invMu  float64 // 1/μ
	keep   float64 // 1-δ
	floorP float64 // δ/m
	capQ   float64 // 1/(m-1); 1 when m == 1

	// arena/slot locate the learner's storage when it is resident in an
	// Arena (t and probs are then subslices of the arena slabs); a nil
	// arena means private heap storage. Residency changes only through
	// Arena.Adopt/Release — it never changes the arithmetic, only where
	// the bytes live.
	arena *Arena
	slot  int
}

// renormFloor is the lazy-decay underflow threshold: when the running decay
// weight w drops below it, w is folded into the stored matrix and reset to
// 1. At ε=0.02 this costs one O(m²) pass every ~13.7k stages — amortized
// O(m²/13 700) per update — and the fold keeps stored magnitudes ≤ 1/w
// times the increments, far from float64 overflow.
const renormFloor = 1e-120

// New builds a learner with a uniform initial strategy (Algorithm 1/2
// initialization: random initial action, p⁰(a) = 1/|H|).
func New(cfg Config) (*Learner, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	l := &Learner{cfg: cfg, last: -1}
	l.reset(cfg.NumActions)
	return l, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config) *Learner {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

func (l *Learner) reset(m int) {
	l.m = m
	l.t, l.stride = make([]float64, m*m), m
	l.w = 1
	l.probs = make([]float64, m)
	for i := range l.probs {
		l.probs[i] = 1 / float64(m)
	}
	l.stage = 0
	l.last = -1
	l.sizeConstants()
}

// sizeConstants refreshes the hot-path constants that depend on m.
func (l *Learner) sizeConstants() {
	l.invMu = 1 / l.cfg.Mu
	l.keep = 1 - l.cfg.Exploration
	l.floorP = l.cfg.Exploration / float64(l.m)
	if l.m > 1 {
		l.capQ = 1 / float64(l.m-1)
	} else {
		l.capQ = 1
	}
}

// NumActions returns the current action-set size.
func (l *Learner) NumActions() int { return l.m }

// Stage returns the number of completed updates.
func (l *Learner) Stage() int { return l.stage }

// Mode returns the averaging mode.
func (l *Learner) Mode() Mode { return l.cfg.Mode }

// Probabilities returns a copy of the current mixed strategy.
func (l *Learner) Probabilities() []float64 {
	out := make([]float64, l.m)
	copy(out, l.probs)
	return out
}

// MinProbAction returns the action the current mixed strategy plays with
// the lowest probability (lowest index on ties) — the eviction candidate
// of the partial-view refresh policy (the helper the learner is least
// invested in). O(m), allocation-free.
func (l *Learner) MinProbAction() int {
	minK := 0
	for k := 1; k < l.m; k++ {
		if l.probs[k] < l.probs[minK] {
			minK = k
		}
	}
	return minK
}

// Select samples an action from the current mixed strategy. The strategy
// is maintained as a valid simplex by recomputeProbs, so the sampling can
// use the single-pass normalized path.
//
//rths:hotpath
func (l *Learner) Select(r *xrand.Rand) int {
	l.last = r.CategoricalNorm(l.probs)
	return l.last
}

// ForceAction overrides the sampled action for this stage (used by tests
// and by the reference implementation to replay a fixed action sequence).
// The caller is asserting the action was played with the current
// probabilities, so importance weights still use Probabilities().
func (l *Learner) ForceAction(a int) {
	if a < 0 || a >= l.m {
		panic(fmt.Sprintf("regret: ForceAction(%d) with m=%d", a, l.m))
	}
	l.last = a
}

// Update ingests the bandit feedback for the action played this stage and
// recomputes the mixed strategy. The action must be the one returned by the
// latest Select (or ForceAction); utility must be finite and non-negative.
//
//rths:hotpath
func (l *Learner) Update(action int, utility float64) error {
	// One utility comparison covers NaN (fails >= 0), -Inf (fails >= 0)
	// and +Inf (fails <= MaxFloat64) without math.IsNaN/IsInf calls in
	// the hot path; error construction lives in the cold helper.
	if action != l.last || action < 0 || action >= l.m || !(utility >= 0 && utility <= math.MaxFloat64) {
		return l.updateErr(action, utility)
	}
	eps := l.cfg.StepSize

	// The rank-one increment of eq. (3-5): column `action` receives
	// u/p(action) · p(j) for every row j, so T(j,j) for j==action
	// accumulates the raw utility. In tracking mode the decay T ← (1-ε)T is
	// applied lazily through w, and the ε factor of eq. (3-3)/(3-6) is
	// folded into the increment so that t·w directly stores the
	// recency-weighted sums and Q is a plain positive part.
	var scale float64
	if l.cfg.Mode == ModeTracking {
		l.w *= 1 - eps
		if l.w < renormFloor {
			// Fold the weight into the live entries before it underflows
			// (this also handles ε=1, where w collapses to exactly 0).
			for j := 0; j < l.m; j++ {
				row := l.t[j*l.stride:][:l.m]
				for i := range row {
					row[i] *= l.w
				}
			}
			l.w = 1
		}
		// Single fused division: u·ε / (p(a)·w).
		scale = utility * eps / (l.probs[action] * l.w)
	} else {
		scale = utility / l.probs[action]
	}
	// Column walk with a single induction variable so the compiler can
	// drop the per-iteration bounds checks; len(t) is m rows of stride.
	t, probs, stride := l.t, l.probs, l.stride
	for idx, j := action, 0; idx < len(t); idx, j = idx+stride, j+1 {
		t[idx] += scale * probs[j]
	}
	l.stage++
	l.recomputeProbs(action)
	l.last = -1
	return nil
}

// updateErr rebuilds Update's validation verdict off the hot path. The
// checks repeat in Update's guard order so the reported error matches the
// first failing condition.
func (l *Learner) updateErr(action int, utility float64) error {
	if action != l.last {
		return fmt.Errorf("regret: Update(action=%d) does not match selected action %d", action, l.last)
	}
	if action < 0 || action >= l.m {
		return fmt.Errorf("regret: Update action %d out of range [0,%d)", action, l.m)
	}
	return fmt.Errorf("regret: Update utility %g invalid", utility)
}

// regretScale converts stored T-matrix differences into the mode's Q value.
func (l *Learner) regretScale() float64 {
	switch l.cfg.Mode {
	case ModeTracking:
		// ε folded into the increments; undo the lazy decay scaling.
		return l.w
	case ModeMatching:
		if l.stage > 0 {
			return 1 / float64(l.stage)
		}
		return 1
	case ModePaperExact:
		return l.cfg.StepSize
	}
	return 1
}

// regret returns the current estimate Q(j,k): the (normalized) gain of
// having played k whenever j was played.
func (l *Learner) regret(j, k int) float64 {
	row := l.t[j*l.stride:]
	diff := row[k] - row[j]
	if diff <= 0 {
		return 0
	}
	return diff * l.regretScale()
}

// Regret returns Q(j,k), the learner's internal proxy regret for not having
// played k whenever it played j. Both indices must be in range.
func (l *Learner) Regret(j, k int) float64 {
	if j < 0 || j >= l.m || k < 0 || k >= l.m {
		panic(fmt.Sprintf("regret: Regret(%d,%d) with m=%d", j, k, l.m))
	}
	if j == k {
		return 0
	}
	return l.regret(j, k)
}

// MaxRegret returns max over (j,k) of Q(j,k) — the learner's own estimate
// of how far it is from the zero-regret condition.
func (l *Learner) MaxRegret() float64 {
	worst := 0.0
	for j := 0; j < l.m; j++ {
		for k := 0; k < l.m; k++ {
			if j == k {
				continue
			}
			if q := l.regret(j, k); q > worst {
				worst = q
			}
		}
	}
	return worst
}

// recomputeProbs applies the Algorithm 1/2 probability update given the
// action j played this stage. It reads only row j of the proxy matrix, so
// the whole post-update strategy refresh is O(m).
func (l *Learner) recomputeProbs(j int) {
	m := l.m
	if m == 1 {
		l.probs[0] = 1
		return
	}
	off := j * l.stride
	row := l.t[off : off+m : off+m]
	probs := l.probs[:m]
	tjj := row[j]
	qs := l.regretScale() * l.invMu
	keep := l.keep
	floor := l.floorP
	cap := l.capQ
	// Branchless over k==j: row[j]-tjj is exactly 0, so the diagonal falls
	// through to p=floor; subtract that term back out when fixing p(j).
	// The min/max builtins avoid data-dependent branches on the regret
	// sign and the μ-cap: on amd64 each compiles to a branchless sequence
	// of two MINSD plus POR (max adds PXOR sign flips), which follows Go's
	// NaN and signed-zero rules, not to a single MINSD/MAXSD.
	sum := 0.0
	for k, tv := range row {
		v := min(max((tv-tjj)*qs, 0), cap)
		p := keep*v + floor
		probs[k] = p
		sum += p
	}
	probs[j] = 1 - (sum - floor)
}

// copyRows copies the live m×m block of a matrix stored at row stride
// srcStride into dst at row stride dstStride: one copy per row, so it
// serves every storage move (adoption, release, slab regrowth, private
// growth) whatever the two strides are.
func copyRows(dst []float64, dstStride int, src []float64, srcStride, m int) {
	for j := 0; j < m; j++ {
		copy(dst[j*dstStride:][:m], src[j*srcStride:][:m])
	}
}

// AddAction grows the action set by one (a helper joined). The new action
// starts with zero regret and immediately receives the exploration floor;
// existing probabilities are rescaled to make room. Stored entries and the
// decay weight carry over untouched: an arena-resident learner writes one
// zero per row plus the new row inside its slot, O(m) and allocation-free
// unless the arena must regrow; a private learner copies its rows into a
// fresh (m+1)×(m+1) matrix. The arithmetic is the same on both paths, so
// the trajectories agree bit-for-bit.
func (l *Learner) AddAction() {
	m := l.m
	nm := m + 1
	if nm > maxActions {
		panic(fmt.Sprintf("regret: AddAction beyond %d actions", maxActions))
	}
	if l.arena != nil {
		l.addActionArena(m, nm)
	} else {
		l.addActionAlloc(m, nm)
	}
	l.m = nm
	l.last = -1
	l.sizeConstants()
	if l.arena != nil {
		l.arena.bind(l)
	}
}

// addActionAlloc is the private-storage growth path: fresh slices, old
// state copied into the top-left block.
func (l *Learner) addActionAlloc(m, nm int) {
	nt := make([]float64, nm*nm)
	copyRows(nt, nm, l.t, l.stride, m)
	l.t, l.stride = nt, nm
	floor := l.cfg.Exploration / float64(nm)
	rescale := 1 - floor
	np := make([]float64, nm)
	for k := 0; k < m; k++ {
		np[k] = l.probs[k] * rescale
	}
	np[m] = floor
	l.probs = np
}

// addActionArena grows the action set inside the learner's slot. Rows sit
// at stride capM, so the m live rows stay where they are: column m gets a
// zero in each of them and row m is zeroed (the slot may hold stale values
// from a previous occupant or a removed action). Only a learner that
// outgrows capM moves, through the arena's regrow.
//
//rths:hotpath
func (l *Learner) addActionArena(m, nm int) {
	if nm > l.arena.capM {
		l.arena.growTo(nm) // cold: moves every slot to the wider stride and rebinds l
	}
	s := l.stride
	t := l.t[:nm*s]
	for idx := m; idx < m*s; idx += s {
		t[idx] = 0
	}
	clear(t[m*s : m*s+nm])
	floor := l.cfg.Exploration / float64(nm)
	rescale := 1 - floor
	p := l.probs[:nm]
	for k := 0; k < m; k++ {
		p[k] = p[k] * rescale
	}
	p[m] = floor
}

// RemoveAction deletes action k (a helper left). Its regret state is
// discarded and the remaining probabilities renormalized; the surviving
// entries and the decay weight carry over untouched. An arena-resident
// learner moves entries inside its slot, O(m·(m−k)) and allocation-free;
// a private learner copies the survivors into a fresh (m−1)×(m−1) matrix.
// Panics if only one action remains or k is out of range.
func (l *Learner) RemoveAction(k int) {
	if l.m <= 1 {
		panic("regret: RemoveAction would empty the action set")
	}
	if k < 0 || k >= l.m {
		panic(fmt.Sprintf("regret: RemoveAction(%d) with m=%d", k, l.m))
	}
	m := l.m
	nm := m - 1
	if l.arena != nil {
		l.removeActionArena(k, m, nm)
	} else {
		l.removeActionAlloc(k, m, nm)
	}
	l.m = nm
	l.last = -1
	l.sizeConstants()
	if l.arena != nil {
		l.arena.bind(l)
	}
}

// removeActionAlloc is the private-storage shrink path: fresh slices with
// row/column k dropped.
func (l *Learner) removeActionAlloc(k, m, nm int) {
	nt := make([]float64, nm*nm)
	for j, nj := 0, 0; j < m; j++ {
		if j == k {
			continue
		}
		src, dst := l.t[j*m:j*m+m], nt[nj*nm:nj*nm+nm]
		copy(dst, src[:k])
		copy(dst[k:], src[k+1:])
		nj++
	}
	l.t, l.stride = nt, nm
	np := make([]float64, nm)
	copy(np, l.probs[:k])
	copy(np[k:], l.probs[k+1:])
	renormalize(np)
	l.probs = np
}

// removeActionArena drops row/column k inside the learner's slot. Rows
// before k shift their tail left by one column; each row after k moves up
// one row with column k left out. Rows keep stride capM, so rows before k
// never move, and removing the last action only trims. The surviving
// probabilities are compacted and renormalized exactly as on the private
// path. No allocation.
//
//rths:hotpath
func (l *Learner) removeActionArena(k, m, nm int) {
	t, s := l.t, l.stride
	for j := 0; j < k && k < nm; j++ { // k == nm moves nothing
		row := t[j*s : j*s+m]
		copy(row[k:], row[k+1:])
	}
	for j := k + 1; j < m; j++ {
		src, dst := t[j*s:j*s+m], t[(j-1)*s:(j-1)*s+nm]
		copy(dst, src[:k])
		copy(dst[k:], src[k+1:])
	}
	p := l.probs
	copy(p[k:m], p[k+1:m])
	renormalize(p[:nm])
}

// renormalize rescales p to sum to one, or resets it to uniform when no
// mass is left: the shared tail of both RemoveAction paths, accumulating
// in index order on each.
func renormalize(p []float64) {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		for i := range p {
			p[i] = 1 / float64(len(p))
		}
		return
	}
	for i := range p {
		p[i] /= sum
	}
}
