// Package markov models the finite ergodic Markov chains that drive helper
// upload bandwidth in the paper: each helper's capacity switches between a
// few discrete levels (the paper uses [700, 800, 900] kbps) according to a
// "slowly changing random process". The package provides chain validation,
// stationary distributions (by linear solve, with a power-iteration
// cross-check), sampling, product chains for the centralized MDP benchmark,
// and the sticky-chain constructor used across the experiments.
package markov

import (
	"errors"
	"fmt"
	"math"

	"rths/internal/mat"
	"rths/internal/xrand"
)

// ErrNotStochastic is returned when a transition matrix's rows do not each
// sum to one (within tolerance) or contain negative entries.
var ErrNotStochastic = errors.New("markov: transition matrix is not row-stochastic")

// Chain is a finite discrete-time Markov chain. States are indexed 0..n-1;
// callers attach their own meaning (e.g. bandwidth levels) to indices.
type Chain struct {
	p    *mat.Matrix // row-stochastic transition matrix
	rows [][]float64 // cached row views: Step samples every stage
}

// New validates the transition matrix and returns the chain. Rows must be
// non-negative and sum to 1 within 1e-9.
func New(transition *mat.Matrix) (*Chain, error) {
	if transition.Rows != transition.Cols {
		return nil, fmt.Errorf("markov: transition matrix must be square, got %dx%d",
			transition.Rows, transition.Cols)
	}
	if transition.Rows == 0 {
		return nil, errors.New("markov: empty transition matrix")
	}
	for i := 0; i < transition.Rows; i++ {
		sum := 0.0
		for j := 0; j < transition.Cols; j++ {
			v := transition.At(i, j)
			if v < -1e-12 || math.IsNaN(v) {
				return nil, fmt.Errorf("%w: entry (%d,%d)=%g", ErrNotStochastic, i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("%w: row %d sums to %g", ErrNotStochastic, i, sum)
		}
	}
	c := &Chain{p: transition.Clone()}
	c.rows = make([][]float64, c.p.Rows)
	for i := range c.rows {
		c.rows[i] = c.p.Row(i)
	}
	return c, nil
}

// MustNew is New but panics on error; for package-internal literals.
func MustNew(transition *mat.Matrix) *Chain {
	c, err := New(transition)
	if err != nil {
		panic(err)
	}
	return c
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.p.Rows }

// Transition returns P(next=j | cur=i).
func (c *Chain) Transition(i, j int) float64 { return c.p.At(i, j) }

// Step samples the successor of state i. Rows are validated row-stochastic
// at construction, so sampling uses the single-pass normalized path.
func (c *Chain) Step(r *xrand.Rand, i int) int {
	return r.CategoricalNorm(c.rows[i])
}

// Stationary returns the stationary distribution π with π = πP, computed by
// solving the linear system (Pᵀ-I)π = 0 augmented with Σπ = 1. The chain
// must be ergodic (irreducible and aperiodic) for the result to be the
// long-run occupancy; reducible chains yield one of the invariant measures.
func (c *Chain) Stationary() (mat.Vector, error) {
	n := c.NumStates()
	// Build A = Pᵀ - I with the last row replaced by the normalization.
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, c.p.At(j, i))
		}
		a.Add(i, i, -1)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := mat.NewVector(n)
	b[n-1] = 1
	pi, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: stationary solve: %w", err)
	}
	for i, v := range pi {
		if v < -1e-9 {
			return nil, fmt.Errorf("markov: stationary distribution has negative mass %g at state %d", v, i)
		}
		if v < 0 {
			pi[i] = 0
		}
	}
	return pi.Normalize1(), nil
}

// StationaryIter estimates the stationary distribution by power iteration
// with a convergence guard: starting from the uniform distribution it
// iterates π ← πP until the L1 change of one sweep falls below tol,
// returning the distribution and the number of sweeps used. It errors when
// maxIters sweeps pass without convergence — periodic chains (where the
// iterates oscillate forever) and tolerances below the attainable
// precision both surface instead of silently returning garbage.
//
// It is the large-state-space companion of Stationary: the linear solve is
// O(n³), a sweep is O(n²) (O(nnz) for sparse transitions), and the
// forecast-driven "proactive re-allocation" loop only needs the stationary
// audience flow of the viewer-switching chain to a few digits. For sticky
// chains with switch probability p the contraction factor is |1 - p·n/(n-1)|,
// so a handful of sweeps suffices at the simulator's parameters.
func (c *Chain) StationaryIter(tol float64, maxIters int) (mat.Vector, int, error) {
	if tol <= 0 {
		return nil, 0, fmt.Errorf("markov: StationaryIter tol=%g", tol)
	}
	if maxIters <= 0 {
		return nil, 0, fmt.Errorf("markov: StationaryIter maxIters=%d", maxIters)
	}
	n := c.NumStates()
	pi := mat.NewVector(n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for k := 1; k <= maxIters; k++ {
		next := c.p.VecMul(pi)
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - pi[i])
		}
		pi = next
		if delta < tol {
			return pi.Normalize1(), k, nil
		}
	}
	return nil, maxIters, fmt.Errorf("markov: StationaryIter did not converge to %g in %d sweeps (periodic chain?)",
		tol, maxIters)
}

// StationaryPower estimates the stationary distribution by power iteration
// from the uniform distribution; used in tests to cross-check Stationary.
func (c *Chain) StationaryPower(iters int) mat.Vector {
	n := c.NumStates()
	pi := mat.NewVector(n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for k := 0; k < iters; k++ {
		pi = c.p.VecMul(pi)
	}
	return pi.Normalize1()
}

// Process is a running instance of a chain: a current state plus a private
// random stream. It is the unit the simulator advances each stage.
type Process struct {
	chain *Chain
	state int
	r     *xrand.Rand
}

// Start begins a process in the given state.
func (c *Chain) Start(r *xrand.Rand, state int) *Process {
	if state < 0 || state >= c.NumStates() {
		panic(fmt.Sprintf("markov: start state %d out of range [0,%d)", state, c.NumStates()))
	}
	return &Process{chain: c, state: state, r: r}
}

// StartStationary begins a process in a state drawn from the stationary
// distribution.
func (c *Chain) StartStationary(r *xrand.Rand) (*Process, error) {
	pi, err := c.Stationary()
	if err != nil {
		return nil, err
	}
	return &Process{chain: c, state: r.Categorical(pi), r: r}, nil
}

// State returns the current state index.
func (p *Process) State() int { return p.state }

// Step advances one stage and returns the new state.
func (p *Process) Step() int {
	p.state = p.chain.Step(p.r, p.state)
	return p.state
}

// Chain returns the underlying chain.
func (p *Process) Chain() *Chain { return p.chain }

// Sticky builds the paper's "slowly changing" process over n states: with
// probability 1-switchProb the state repeats; otherwise it moves uniformly
// to one of the other states. switchProb must lie in (0, 1).
func Sticky(n int, switchProb float64) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: Sticky with n=%d", n)
	}
	if !(switchProb > 0 && switchProb < 1) { // NaN fails too
		return nil, fmt.Errorf("markov: Sticky switchProb=%g outside (0,1)", switchProb)
	}
	if n == 1 {
		return New(mat.FromRows([][]float64{{1}}))
	}
	m := mat.NewMatrix(n, n)
	off := switchProb / float64(n-1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, 1-switchProb)
			} else {
				m.Set(i, j, off)
			}
		}
	}
	return New(m)
}

// StickyWeighted builds a sticky chain whose off-diagonal mass follows the
// given weights: with probability 1-switchProb the state repeats; otherwise
// it jumps to another state j ≠ i with probability proportional to
// weights[j]. It is the channel-switching model of the multi-channel
// cluster: viewers mostly stay put, and when they zap they land on popular
// (e.g. Zipf-weighted) channels. Weights must be non-negative with at least
// two positive entries (otherwise there is nowhere to switch to); a state
// whose alternatives all have zero weight keeps its stickiness mass.
func StickyWeighted(weights []float64, switchProb float64) (*Chain, error) {
	n := len(weights)
	if n < 2 {
		return nil, fmt.Errorf("markov: StickyWeighted with %d states", n)
	}
	if !(switchProb > 0 && switchProb < 1) { // NaN fails too
		return nil, fmt.Errorf("markov: StickyWeighted switchProb=%g outside (0,1)", switchProb)
	}
	total := 0.0
	positive := 0
	for j, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("markov: StickyWeighted weight[%d]=%g", j, w)
		}
		if w > 0 {
			positive++
		}
		total += w
	}
	if positive < 2 {
		return nil, fmt.Errorf("markov: StickyWeighted needs >= 2 positive weights, got %d", positive)
	}
	m := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rest := total - weights[i]
		if rest <= 0 {
			// No positively weighted alternative: absorb the switch mass
			// into the diagonal so the row stays stochastic.
			m.Set(i, i, 1)
			continue
		}
		for j := 0; j < n; j++ {
			if j == i {
				m.Set(i, j, 1-switchProb)
			} else {
				m.Set(i, j, switchProb*weights[j]/rest)
			}
		}
	}
	return New(m)
}

// BirthDeath builds a birth-death chain over n states with up/down
// probabilities p and q at interior states (reflecting at the ends). Used
// for smoother bandwidth drift than the uniform sticky chain.
func BirthDeath(n int, up, down float64) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: BirthDeath with n=%d", n)
	}
	if up < 0 || down < 0 || up+down > 1 {
		return nil, fmt.Errorf("markov: BirthDeath up=%g down=%g invalid", up, down)
	}
	m := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		u, d := up, down
		if i == n-1 {
			u = 0
		}
		if i == 0 {
			d = 0
		}
		if i+1 < n {
			m.Set(i, i+1, u)
		}
		if i-1 >= 0 {
			m.Set(i, i-1, d)
		}
		m.Set(i, i, 1-u-d)
	}
	return New(m)
}

// Product returns the product chain of independent chains: states are tuples
// (encoded as mixed-radix integers) and transitions multiply. The MDP
// benchmark uses this to enumerate the joint helper-bandwidth state space.
type Product struct {
	chains []*Chain
	radix  []int
	total  int
}

// NewProduct builds the product of the given chains. The total state count
// is the product of the individual counts; it must stay small enough to
// enumerate (the constructor rejects totals above 1<<20).
func NewProduct(chains ...*Chain) (*Product, error) {
	if len(chains) == 0 {
		return nil, errors.New("markov: empty product")
	}
	total := 1
	radix := make([]int, len(chains))
	for i, c := range chains {
		radix[i] = c.NumStates()
		total *= radix[i]
		if total > 1<<20 {
			return nil, fmt.Errorf("markov: product state space too large (> %d)", 1<<20)
		}
	}
	return &Product{chains: chains, radix: radix, total: total}, nil
}

// NumStates returns the number of joint states.
func (p *Product) NumStates() int { return p.total }

// Encode packs per-chain states into a joint index.
func (p *Product) Encode(states []int) int {
	if len(states) != len(p.radix) {
		panic(fmt.Sprintf("markov: Encode with %d states, want %d", len(states), len(p.radix)))
	}
	idx := 0
	for i, s := range states {
		if s < 0 || s >= p.radix[i] {
			panic(fmt.Sprintf("markov: Encode state[%d]=%d out of range %d", i, s, p.radix[i]))
		}
		idx = idx*p.radix[i] + s
	}
	return idx
}

// Decode unpacks a joint index into per-chain states.
func (p *Product) Decode(idx int) []int {
	states := make([]int, len(p.radix))
	for i := len(p.radix) - 1; i >= 0; i-- {
		states[i] = idx % p.radix[i]
		idx /= p.radix[i]
	}
	return states
}

// Stationary returns the joint stationary distribution (the product of the
// marginals, since the chains are independent).
func (p *Product) Stationary() (mat.Vector, error) {
	margs := make([]mat.Vector, len(p.chains))
	for i, c := range p.chains {
		pi, err := c.Stationary()
		if err != nil {
			return nil, fmt.Errorf("markov: product component %d: %w", i, err)
		}
		margs[i] = pi
	}
	out := mat.NewVector(p.total)
	for idx := 0; idx < p.total; idx++ {
		states := p.Decode(idx)
		v := 1.0
		for i, s := range states {
			v *= margs[i][s]
		}
		out[idx] = v
	}
	return out, nil
}
