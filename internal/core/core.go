// Package core implements the paper's helper-selection system: N peers
// repeatedly choose among H helpers whose upload bandwidth follows
// independent, slowly switching Markov chains. Each stage every peer picks
// a helper, the helper's current capacity is split evenly among its
// attached peers (u_i = C_j / load_j, §III.A), and each peer feeds only its
// own realized rate back into its selection policy — the bandit feedback
// setting the RTHS/R2HS learners are built for.
//
// The selection policy is pluggable (Selector); internal/regret provides
// the paper's learners and internal/baseline the comparison policies. The
// per-stage StageResult exposes the global view (loads, capacities, rates)
// that the evaluation harness uses for clairvoyant regret audits, welfare
// and fairness metrics — the policies themselves never see it.
package core

import (
	"errors"
	"fmt"
	"math"

	"rths/internal/forkjoin"
	"rths/internal/markov"
	"rths/internal/regret"
	"rths/internal/telemetry"
	"rths/internal/xrand"
)

// DefaultLevels are the paper's helper bandwidth levels in kbps (§IV).
var DefaultLevels = []float64{700, 800, 900}

// DefaultSwitchProb makes the bandwidth process "slowly changing": the
// expected dwell time in a level is 1/DefaultSwitchProb = 50 stages.
const DefaultSwitchProb = 0.02

// DefaultViewRefresh is the default period, in stages, of the partial-view
// refresh pass (Config.ViewRefresh = 0). It matches the bandwidth chains'
// expected dwell time: refreshing much faster would evict helpers before
// the learner can price them, much slower would let an out-of-view helper
// stay invisible across a whole bandwidth regime.
const DefaultViewRefresh = 50

// Selector is one peer's helper-selection policy. Implementations see only
// their own actions and utilities (normalized to [0,1] by the system), per
// the paper's zero-knowledge setting. regret.Learner satisfies Selector.
type Selector interface {
	// Select samples the helper to use this stage.
	Select(r *xrand.Rand) int
	// Update feeds back the realized normalized utility of the played action.
	Update(action int, utility float64) error
	// NumActions returns the selector's current action-set size.
	NumActions() int
}

// DynamicSelector additionally supports helper churn.
type DynamicSelector interface {
	Selector
	// AddAction grows the action set by one (new helper at the last index).
	AddAction()
	// RemoveAction removes action k and shifts later indices down.
	RemoveAction(k int)
}

// StageObserver is implemented by policies that additionally watch the
// global stage outcome (previous-stage loads and capacities). The paper's
// RTHS learners never need this; it exists so the comparison baselines —
// notably myopic best response, whose oscillation motivates the paper's CE
// approach (§III.B) — can be expressed as Selectors too.
type StageObserver interface {
	ObserveStage(res StageResult)
}

// Interface checks: the regret learners must remain usable as selectors.
var (
	_ Selector        = (*regret.Learner)(nil)
	_ DynamicSelector = (*regret.Learner)(nil)
	_ Selector        = (*regret.Reference)(nil)
)

// HelperSpec describes one helper's bandwidth process.
type HelperSpec struct {
	// Levels are the bandwidth values (kbps) of the Markov states, in
	// state-index order. Must be non-empty and positive.
	Levels []float64
	// SwitchProb is the per-stage probability of leaving the current level
	// (uniformly to another). Zero selects DefaultSwitchProb.
	SwitchProb float64
	// InitState is the starting state index; -1 draws from the stationary
	// distribution (uniform for the sticky chain).
	InitState int
}

// DefaultHelperSpec is the paper's [700,800,900] slowly-switching helper.
func DefaultHelperSpec() HelperSpec {
	levels := make([]float64, len(DefaultLevels))
	copy(levels, DefaultLevels)
	return HelperSpec{Levels: levels, SwitchProb: DefaultSwitchProb, InitState: -1}
}

// SelectorFactory builds the selection policy for peer i with the given
// action-set size. numActions is the number of actions the policy must
// expose: the helper count on a full-view system, the ViewSize bound when
// partial views are engaged (Config.ViewSize) — it is NOT necessarily the
// pool size, so factories must not use it to index helper metadata.
// utilityScale is the value the system divides rates by before handing
// them to Update (the maximum helper level), so factories can size
// learner constants for normalized utilities.
type SelectorFactory func(peer, numActions int, utilityScale float64) (Selector, error)

// LearnerFactory returns a factory producing regret learners from a base
// config; NumActions is overridden per system.
func LearnerFactory(base regret.Config) SelectorFactory {
	return func(_, numHelpers int, _ float64) (Selector, error) {
		cfg := base
		cfg.NumActions = numHelpers
		return regret.New(cfg)
	}
}

// Config assembles a system.
type Config struct {
	// NumPeers is the number of competing peers (players) at start, >= 0
	// (channels may start empty and fill through churn).
	NumPeers int
	// Helpers describes each helper's bandwidth process; len >= 1.
	Helpers []HelperSpec
	// Factory builds each peer's policy. Nil gives every peer the paper's
	// R2HS tracking learner with experiment defaults (utilities
	// normalized, so scale 1), built directly in the system's learner
	// arena.
	Factory SelectorFactory
	// Seed drives all randomness in the system.
	Seed uint64
	// DemandPerPeer is each peer's streaming demand in kbps, used by the
	// server-load accounting (Fig 5). Zero disables demand tracking.
	DemandPerPeer float64
	// UtilityScale overrides the utility normalization constant (by default
	// the maximum level across the configured helpers). Systems that
	// exchange helpers at runtime — the multi-channel cluster — set one
	// shared scale so a helper migrating in via AddHelper never exceeds the
	// receiving system's normalization. Must be at least the largest
	// configured level; 0 selects the default.
	UtilityScale float64
	// ViewSize bounds each peer's helper candidate view (the paper's §III
	// partial-view model): every peer's selector runs on at most ViewSize
	// actions, mapped to global helper ids through a per-peer view, so
	// learner state is O(ViewSize²) instead of O(H²) and large helper
	// pools (H in the hundreds) stay affordable. 0 keeps today's full-view
	// behavior bit-for-bit. Partial views engage when the bound binds:
	// at construction when 0 < ViewSize < len(Helpers) (each peer's
	// initial view is then a uniform sample of ViewSize helpers drawn
	// from a deterministic per-peer stream), or lazily when AddHelper
	// first grows the pool past the bound (each peer then shrinks its
	// full view down to ViewSize, learners keeping their
	// highest-probability helpers). A ViewSize the pool never exceeds is
	// exactly the full-view engine — no extra RNG draws, no mapping
	// layer — pinned by the view equivalence tests.
	ViewSize int
	// ViewRefresh is the period, in stages, of the partial-view refresh
	// pass: every ViewRefresh stages each partial-view peer refills its
	// view to ViewSize helpers and swaps its lowest-probability in-view
	// helper for a uniformly sampled unseen one, through the selector's
	// AddAction/RemoveAction churn seam on the peer's own RNG stream (so
	// results are identical on every backend). 0 selects
	// DefaultViewRefresh; negative disables refresh. Ignored when partial
	// views are not engaged.
	ViewRefresh int
	// Instruments is the optional per-engine telemetry seam: when non-nil
	// the stage loop observes select/feedback phase wall time and counts
	// stages and view swaps into it. Each engine must own its own set (a
	// cluster may step its channels concurrently). Nil disables the seam at
	// the cost of one pointer check per stage; the instruments themselves
	// never allocate or perturb determinism (wall time is observed, never
	// fed back).
	Instruments *telemetry.SystemInstruments
}

type helper struct {
	levels []float64
	proc   *markov.Process
}

func (h *helper) capacity() float64 { return h.levels[h.proc.State()] }

type peer struct {
	sel Selector
	// lrn is non-nil when sel is the RTHS learner: the stage loops call it
	// directly (no itab dispatch) in that common case.
	lrn    *regret.Learner
	demand float64
	// view maps the selector's view-local actions to global helper ids;
	// nil when the peer sees the full helper set (ViewSize = 0, or a
	// ViewSize the helper pool has never exceeded).
	view *regret.View
	// viewRng is the peer's private stream for view sampling and refresh;
	// nil iff view is nil.
	viewRng *xrand.Rand
	// viewChangedAt is the stage of the peer's last view edit (initial
	// sample, refill, swap, churn adoption or removal replacement). The
	// refresh swap runs only when a full refresh period has passed since,
	// so a freshly added helper — still at the exploration-floor
	// probability and therefore the strategy's argmin — is never evicted
	// before it has played a period.
	viewChangedAt int
}

func newPeer(sel Selector, demand float64) *peer {
	lrn, _ := sel.(*regret.Learner)
	return &peer{sel: sel, lrn: lrn, demand: demand}
}

func (p *peer) selectHelper(r *xrand.Rand) int {
	if p.lrn != nil {
		return p.lrn.Select(r)
	}
	return p.sel.Select(r)
}

func (p *peer) feedback(action int, utility float64) error {
	if p.lrn != nil {
		return p.lrn.Update(action, utility)
	}
	return p.sel.Update(action, utility)
}

// addAction and removeAction grow and shrink the peer's action set; the
// caller has checked that sel is a DynamicSelector.
func (p *peer) addAction() {
	if p.lrn != nil {
		p.lrn.AddAction()
		return
	}
	p.sel.(DynamicSelector).AddAction()
}

func (p *peer) removeAction(k int) {
	if p.lrn != nil {
		p.lrn.RemoveAction(k)
		return
	}
	p.sel.(DynamicSelector).RemoveAction(k)
}

// System is a running helper-selection simulation.
type System struct {
	rng     *xrand.Rand
	helpers []*helper
	peers   []*peer
	scale   float64 // max level across helpers; normalizes utilities
	stage   int

	// Reusable stage buffers: Step fills these in place every stage and
	// hands them out through StageResult without copying, keeping the
	// steady-state hot path allocation-free.
	actions     []int
	loads       []int
	caps        []float64 // helper capacities this stage
	rates       []float64 // per-peer realized rates
	helperRates []float64 // per-helper C_j/load_j (one division per helper)
	capScratch  []float64 // optWelfare partial-selection workspace

	// observers caches the peers whose policies watch the global stage
	// outcome, so the per-stage notification loop skips the type assertion
	// for pure-bandit populations (the paper's setting: no observers).
	observers []StageObserver

	// Partial-view engine state (nil/zero when views are not engaged).
	viewSize    int         // configured view bound (v)
	viewRefresh int         // refresh period in stages; 0 = disabled
	viewMaster  *xrand.Rand // source of per-peer view streams
	viewActions []int       // per-peer view-local action this stage
	viewMark    []bool      // per-helper in-view marks (refresh scratch)
	viewIdx     []int       // helper-id scratch (initial-view sampling)

	// midStage is set between SelectStage and FinishStage — the split-phase
	// protocol the distributed runtime drives — and guards against mixing
	// the split-phase and whole-stage entry points.
	midStage bool

	// inst is the optional telemetry seam (Config.Instruments); nil when
	// disabled. stageViewSwaps counts this stage's refresh swaps for the
	// StageResult regardless of inst.
	inst           *telemetry.SystemInstruments
	stageViewSwaps int

	// blocks gates the RNG-free per-learner passes — the feedback
	// updates and full-view helper churn — onto the fork-join executor,
	// where pass runs them over fixed contiguous blocks of peers. The
	// gate captures GOMAXPROCS at construction; nonLearners counts the
	// peers whose policy is not the RTHS learner, which keep every pass
	// sequential (another policy may share state between peers).
	blocks      forkjoin.Gate
	group       forkjoin.Group
	pass        blockPass
	nonLearners int

	// arena is the struct-of-arrays store for the resident RTHS learners:
	// every peer whose selector is a *regret.Learner has its proxy matrix
	// and probability vector in the arena's contiguous slabs, so the
	// select/feedback passes walk dense memory instead of per-learner
	// heap objects. Learners are adopted on join (New, AddPeer) and
	// released (with slot compaction) on leave (RemovePeer); residency
	// never changes the arithmetic, only the memory layout — pinned by
	// the engine equivalence tests.
	arena *regret.Arena
}

// StageResult is the global view of one completed stage.
type StageResult struct {
	// Stage is the 0-based index of the completed stage.
	Stage int
	// Actions[i] is the helper chosen by peer i.
	Actions []int
	// Loads[j] is the number of peers attached to helper j.
	Loads []int
	// Capacities[j] is helper j's bandwidth this stage (kbps).
	Capacities []float64
	// Rates[i] is peer i's received streaming rate C_j/load_j (kbps).
	Rates []float64
	// Welfare is the social welfare Σ_i Rates[i] = Σ_{occupied j} C_j.
	Welfare float64
	// OptWelfare is the stage optimum: the sum of the min(N,H) largest
	// capacities (all of them when N >= H).
	OptWelfare float64
	// ServerLoad is Σ_i max(0, demand_i - rate_i): the surplus requests the
	// streaming server must absorb (0 when demand tracking is off).
	ServerLoad float64
	// MinDeficit is the paper's "minimum bandwidth deficit": the server
	// load that would remain if every helper's bandwidth were fully
	// utilized, max(0, Σ demand - Σ capacities).
	MinDeficit float64
	// ViewSwaps is the number of partial-view refresh swaps performed at
	// the top of this stage (0 when views are disabled or no refresh
	// pass ran). Integer, deterministic, identical on every backend.
	ViewSwaps int
}

// Clone deep-copies the result so observers may retain it across stages.
func (sr StageResult) Clone() StageResult {
	cp := sr
	cp.Actions = append([]int(nil), sr.Actions...)
	cp.Loads = append([]int(nil), sr.Loads...)
	cp.Capacities = append([]float64(nil), sr.Capacities...)
	cp.Rates = append([]float64(nil), sr.Rates...)
	return cp
}

// New builds a system from the config.
func New(cfg Config) (*System, error) {
	if cfg.NumPeers < 0 {
		return nil, fmt.Errorf("core: NumPeers=%d", cfg.NumPeers)
	}
	if len(cfg.Helpers) == 0 {
		return nil, errors.New("core: no helpers configured")
	}
	// Each float check is written so NaN fails it too.
	if !(cfg.DemandPerPeer >= 0 && cfg.DemandPerPeer <= math.MaxFloat64) {
		return nil, fmt.Errorf("core: DemandPerPeer=%g must be finite and non-negative", cfg.DemandPerPeer)
	}
	if !(cfg.UtilityScale >= 0 && cfg.UtilityScale <= math.MaxFloat64) {
		return nil, fmt.Errorf("core: UtilityScale=%g must be finite and non-negative", cfg.UtilityScale)
	}
	if cfg.ViewSize < 0 {
		return nil, fmt.Errorf("core: ViewSize=%d", cfg.ViewSize)
	}
	rng := xrand.New(cfg.Seed)
	s := &System{rng: rng, inst: cfg.Instruments, blocks: forkjoin.NewGate(blockMinWork)}
	s.pass.s = s

	scale := 0.0
	for j, spec := range cfg.Helpers {
		h, err := newHelper(spec, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("core: helper %d: %w", j, err)
		}
		s.helpers = append(s.helpers, h)
		for _, lv := range spec.Levels {
			if lv > scale {
				scale = lv
			}
		}
	}
	if cfg.UtilityScale > 0 {
		if cfg.UtilityScale < scale {
			return nil, fmt.Errorf("core: UtilityScale %g below largest level %g", cfg.UtilityScale, scale)
		}
		scale = cfg.UtilityScale
	}
	s.scale = scale

	// The view bound is recorded whenever ViewSize > 0, but the view
	// machinery engages only when the bound actually binds — here at
	// construction when ViewSize < len(Helpers), or lazily the first time
	// AddHelper grows the pool past the bound (engageViews). When it
	// engages here, the view stream is split from the master at this
	// fixed point (after the helper chains), and each peer draws its own
	// sub-stream — view churn is therefore deterministic and independent
	// of the execution backend. A bound that never binds costs nothing:
	// no extra RNG draws, no mapping layer — exactly the full-view engine.
	if cfg.ViewSize > 0 {
		s.viewSize = cfg.ViewSize
		s.viewRefresh = cfg.ViewRefresh
		if s.viewRefresh == 0 {
			s.viewRefresh = DefaultViewRefresh
		} else if s.viewRefresh < 0 {
			s.viewRefresh = 0
		}
		if cfg.ViewSize < len(cfg.Helpers) {
			s.viewMaster = rng.Split()
			s.viewMark = make([]bool, len(s.helpers))
			s.viewIdx = make([]int, len(s.helpers))
		}
	}

	// One arena per system: every RTHS learner's state lives in its
	// contiguous slabs. Sized with +1 headroom over the joining size so
	// the view refresh's add-before-remove transient never forces a slot
	// regrow (NewArena clamps to the learner action bound internally).
	s.arena = regret.NewArena(s.NewPeerActions() + 1)
	// The population size is known up front: reserve the slabs once
	// instead of paying O(NumPeers) regrowth garbage during the adoption
	// loop (at a million viewers that garbage would dwarf the live heap).
	s.arena.Reserve(cfg.NumPeers)

	for i := 0; i < cfg.NumPeers; i++ {
		var sel Selector
		var err error
		if cfg.Factory == nil {
			sel, err = s.newLearner()
		} else {
			sel, err = cfg.Factory(i, s.NewPeerActions(), scale)
		}
		if err != nil {
			return nil, fmt.Errorf("core: selector for peer %d: %w", i, err)
		}
		if sel.NumActions() != s.NewPeerActions() {
			return nil, fmt.Errorf("core: selector for peer %d has %d actions, want %d",
				i, sel.NumActions(), s.NewPeerActions())
		}
		if err := s.checkViewCompatible(sel); err != nil {
			return nil, fmt.Errorf("core: selector for peer %d: %w", i, err)
		}
		s.addPeer(newPeer(sel, cfg.DemandPerPeer))
	}
	s.actions = make([]int, len(s.peers))
	s.viewActions = make([]int, len(s.peers))
	s.loads = make([]int, len(s.helpers))
	s.caps = make([]float64, len(s.helpers))
	s.rates = make([]float64, len(s.peers))
	s.helperRates = make([]float64, len(s.helpers))
	s.capScratch = make([]float64, len(s.helpers))
	s.rebuildObservers()
	return s, nil
}

// newLearner builds the default RTHS learner for a joining peer, sized to
// NewPeerActions: born in the next arena slot, so no private matrix is
// allocated only to be copied in and dropped (private storage only when
// a test has detached the arena).
func (s *System) newLearner() (*regret.Learner, error) {
	cfg := regret.Defaults(s.NewPeerActions(), 1)
	if s.arena == nil {
		return regret.New(cfg)
	}
	return s.arena.New(cfg)
}

// adopt moves a joining peer's factory-built RTHS learner into the system
// arena (no-op for arena-born learners and non-learner policies, or when
// the arena is detached by tests).
func (s *System) adopt(p *peer) {
	if s.arena != nil && p.lrn != nil {
		s.arena.Adopt(p.lrn)
	}
}

// release returns a departing peer's learner state to private storage and
// compacts the freed arena slot (swap-with-last), keeping the slabs dense
// under churn.
func (s *System) release(p *peer) {
	if s.arena != nil && p.lrn != nil {
		s.arena.Release(p.lrn)
	}
}

// discard compacts a destroyed peer's arena slot without materializing
// private storage — the learner is dead (RemovePeer invalidates the
// removed peer's selector), so the departing side of churn allocates
// nothing. Cluster channel switches (remove here + fresh add there) ride
// this path every stage.
func (s *System) discard(p *peer) {
	if s.arena != nil && p.lrn != nil {
		s.arena.Discard(p.lrn)
	}
}

// addPeer gives a joining peer its view and arena slot and appends it.
func (s *System) addPeer(p *peer) {
	s.attachView(p)
	s.adopt(p)
	if p.lrn == nil {
		s.nonLearners++
	}
	s.peers = append(s.peers, p)
}

// LearnerArena exposes the system's learner arena for inspection (tests
// assert density under churn; tools read the slot cost model). Nil only
// when a test has detached it.
func (s *System) LearnerArena() *regret.Arena { return s.arena }

// rebuildObservers recomputes the cached StageObserver list from scratch
// (construction, and RemovePeer of an observer; AddPeer appends
// incrementally).
func (s *System) rebuildObservers() {
	s.observers = s.observers[:0]
	for _, p := range s.peers {
		if obs, ok := p.sel.(StageObserver); ok {
			s.observers = append(s.observers, obs)
		}
	}
}

// NewPeerActions returns the action-set size a newly joining peer's
// selector must have: the view bound when partial views are engaged
// (never more than the current helper count), the full helper count
// otherwise. Backends building mid-run selectors size them with this
// rather than NumHelpers.
func (s *System) NewPeerActions() int {
	if s.viewMaster == nil {
		return len(s.helpers)
	}
	if s.viewSize < len(s.helpers) {
		return s.viewSize
	}
	return len(s.helpers)
}

// PeerView returns a copy of peer i's view (global helper ids in
// view-local order), or nil when the peer sees the full helper set.
func (s *System) PeerView(i int) []int {
	if s.peers[i].view == nil {
		return nil
	}
	return s.peers[i].view.Ids()
}

// checkViewCompatible rejects selectors that cannot run behind a partial
// view. StageObserver policies read the GLOBAL per-helper stage arrays
// (loads, capacities) but play view-local action indices, so under a
// partial view they would silently act on the wrong helpers — refuse them
// up front instead. Pure bandit policies (the paper's setting) are
// unaffected: their feedback is already view-local.
func (s *System) checkViewCompatible(sel Selector) error {
	if s.viewMaster == nil {
		return nil
	}
	if _, ok := sel.(StageObserver); ok {
		return fmt.Errorf("policy %T observes global stage state, which partial views (ViewSize=%d) cannot route view-locally", sel, s.viewSize)
	}
	return nil
}

// attachView gives a peer its partial view when views are engaged: a
// private RNG sub-stream and a uniform sample of NewPeerActions() helpers.
func (s *System) attachView(p *peer) {
	if s.viewMaster == nil {
		return
	}
	p.viewRng = s.viewMaster.Split()
	v := s.NewPeerActions()
	// Partial Fisher-Yates over the helper-id scratch: the first v swapped
	// entries are a uniform sample without replacement.
	idx := s.viewIdx[:len(s.helpers)]
	for j := range idx {
		idx[j] = j
	}
	ids := make([]int, v)
	for k := 0; k < v; k++ {
		j := k + p.viewRng.Intn(len(idx)-k)
		idx[k], idx[j] = idx[j], idx[k]
		ids[k] = idx[k]
	}
	p.view = regret.NewView(ids)
	p.viewChangedAt = s.stage
}

// sampleUnseen returns a uniformly sampled helper id outside the peer's
// view. The caller guarantees at least one unseen helper exists.
func (s *System) sampleUnseen(p *peer) int {
	mark := s.viewMark[:len(s.helpers)]
	n := p.view.Len()
	for k := 0; k < n; k++ {
		mark[p.view.Global(k)] = true
	}
	r := p.viewRng.Intn(len(s.helpers) - n)
	pick := -1
	for j, in := range mark {
		if in {
			continue
		}
		if r == 0 {
			pick = j
			break
		}
		r--
	}
	for k := 0; k < n; k++ {
		mark[p.view.Global(k)] = false
	}
	return pick
}

// refreshViews is the periodic partial-view maintenance pass (every
// ViewRefresh stages, at the top of the stage, before selection): each
// partial-view peer first refills its view to the ViewSize bound with
// uniformly sampled unseen helpers (views shrink when an in-view helper
// is removed); if the view has gone a full refresh period without any
// edit, it instead swaps its lowest-probability in-view helper for a
// uniformly sampled unseen one — the exploration that lets a bounded
// view eventually price every helper. The swap is deferred whenever the
// view changed within the period (a refill this pass, a churn adoption,
// a removal replacement): the added action still sits at the
// exploration-floor probability, so it would itself be the argmin and
// the swap would evict it before it played a single stage. All edits run
// through the selector's AddAction/RemoveAction churn seam (add before
// remove, so the action set never empties) on the peer's own RNG stream.
// Policies without dynamic action sets keep their initial sample; the
// probability-guided swap additionally needs the RTHS learner's mixed
// strategy, so non-learner dynamic policies refill but never swap.
func (s *System) refreshViews() {
	h := len(s.helpers)
	for _, p := range s.peers {
		if p.view == nil {
			continue
		}
		dyn, ok := p.sel.(DynamicSelector)
		if !ok {
			continue
		}
		target := s.viewSize
		if target > h {
			target = h
		}
		for p.view.Len() < target {
			u := s.sampleUnseen(p)
			dyn.AddAction()
			p.view.Add(u)
			p.viewChangedAt = s.stage
		}
		if p.viewChangedAt+s.viewRefresh <= s.stage && p.lrn != nil && p.view.Len() < h && p.view.Len() > 0 {
			k := p.lrn.MinProbAction()
			u := s.sampleUnseen(p)
			dyn.AddAction()
			dyn.RemoveAction(k)
			p.view.Add(u)
			p.view.RemoveLocal(k)
			p.viewChangedAt = s.stage
			s.stageViewSwaps++
			if s.inst != nil {
				s.inst.ViewSwaps.Inc()
			}
		}
	}
}

func newHelper(spec HelperSpec, rng *xrand.Rand) (*helper, error) {
	if len(spec.Levels) == 0 {
		return nil, errors.New("no bandwidth levels")
	}
	for _, lv := range spec.Levels {
		if !(lv > 0 && lv <= math.MaxFloat64) {
			return nil, fmt.Errorf("level %g must be positive and finite", lv)
		}
	}
	sp := spec.SwitchProb
	if sp == 0 {
		sp = DefaultSwitchProb
	}
	var chain *markov.Chain
	var err error
	if len(spec.Levels) == 1 {
		chain, err = markov.Sticky(1, 0.5)
	} else {
		chain, err = markov.Sticky(len(spec.Levels), sp)
	}
	if err != nil {
		return nil, err
	}
	init := spec.InitState
	if init < 0 {
		init = rng.Intn(len(spec.Levels))
	}
	if init >= len(spec.Levels) {
		return nil, fmt.Errorf("init state %d out of range", init)
	}
	levels := append([]float64(nil), spec.Levels...)
	return &helper{levels: levels, proc: chain.Start(rng, init)}, nil
}

// NumPeers returns the current number of peers.
func (s *System) NumPeers() int { return len(s.peers) }

// NumHelpers returns the current number of helpers.
func (s *System) NumHelpers() int { return len(s.helpers) }

// Stage returns the number of completed stages.
func (s *System) Stage() int { return s.stage }

// UtilityScale returns the normalization constant (max helper level).
func (s *System) UtilityScale() float64 { return s.scale }

// Capacities returns a fresh copy of the helpers' current bandwidths. The
// hot path does not use it (Step fills a reusable buffer instead); it is
// the inspection accessor for tests and tools.
func (s *System) Capacities() []float64 {
	caps := make([]float64, len(s.helpers))
	for j, h := range s.helpers {
		caps[j] = h.capacity()
	}
	return caps
}

// Selector exposes peer i's policy (for inspection in tests and tools).
func (s *System) Selector(i int) Selector { return s.peers[i].sel }

// Step advances the system one stage: bandwidth chains move, every peer
// selects a helper, rates are realized and fed back. The returned result's
// slices alias internal buffers that the next Step overwrites — call Clone
// to retain a result across stages. The steady-state path is
// allocation-free (pinned by TestStepZeroAllocs).
//
//rths:hotpath
func (s *System) Step() (StageResult, error) {
	var res StageResult
	err := s.stepInto(&res)
	return res, err
}

// stepInto is Step with the result written in place, letting Run drive the
// stage loop without copying a StageResult per stage.
//
//rths:hotpath
func (s *System) stepInto(res *StageResult) error {
	if s.midStage {
		return errors.New("core: Step during an open SelectStage/FinishStage pair")
	}
	// 1. Environment moves (exogenous, independent of play).
	for _, h := range s.helpers {
		h.proc.Step()
	}
	for j, h := range s.helpers {
		s.caps[j] = h.capacity()
	}
	// 2. Simultaneous selection.
	if err := s.selectPhase(); err != nil {
		return err
	}
	return s.finishInto(res)
}

// selectPhase runs the simultaneous-selection pass, filling s.actions
// (global helper ids) and s.loads; partial-view peers select a view-local
// action (kept in s.viewActions for the feedback pass) that is routed to
// its global helper id here. It also hosts the periodic view-refresh
// pass, which must run at the top of a stage: selectPhase is the one
// point both the whole-stage engine (Step) and the split-phase protocol
// (SelectStage, driven by the distributed runtime) pass through, so both
// backends refresh on exactly the same stages.
//
//rths:hotpath
func (s *System) selectPhase() error {
	s.stageViewSwaps = 0
	var t0 int64
	if s.inst != nil {
		t0 = s.inst.Now()
	}
	if s.viewMaster != nil && s.viewRefresh > 0 && s.stage > 0 && s.stage%s.viewRefresh == 0 {
		s.refreshViews()
	}
	for j := range s.loads {
		s.loads[j] = 0
	}
	for i, p := range s.peers {
		a := p.selectHelper(s.rng)
		if p.view != nil {
			if a < 0 || a >= p.view.Len() {
				return selectionErr(i, a, true)
			}
			s.viewActions[i] = a
			a = p.view.Global(a)
		}
		if a < 0 || a >= len(s.helpers) {
			return selectionErr(i, a, false)
		}
		s.actions[i] = a
		s.loads[a]++
	}
	if s.inst != nil {
		s.inst.SelectSeconds.Observe(float64(s.inst.Now()-t0) / 1e9)
	}
	return nil
}

// finishInto completes a stage after selection: realized rates, bandit
// feedback, and the stage metrics, all from the capacities in s.caps.
//
//rths:hotpath
func (s *System) finishInto(res *StageResult) error {
	var t0 int64
	if s.inst != nil {
		t0 = s.inst.Now()
	}
	// Realized rates and bandit feedback. One division per helper, not
	// per peer: every peer on helper j receives the same C_j/load_j.
	capSum := 0.0
	for j, c := range s.caps {
		capSum += c
		if s.loads[j] > 0 {
			s.helperRates[j] = c / float64(s.loads[j])
		} else {
			s.helperRates[j] = 0
		}
	}
	// Every floating-point sum accumulates in one sequential pass in
	// peer order. The learners' updates ride along in that pass, or fork
	// in peer blocks after it when the block gate opens.
	w := s.blockWidth(s.NewPeerActions())
	var welfare, serverLoad, demandSum float64
	for i, p := range s.peers {
		r := s.helperRates[s.actions[i]]
		s.rates[i] = r
		welfare += r
		if p.demand > 0 {
			demandSum += p.demand
			if short := p.demand - r; short > 0 {
				serverLoad += short
			}
		}
		if w == 1 {
			if err := s.feedback(i, p); err != nil {
				return err
			}
		}
	}
	if w > 1 {
		if err := s.runBlocks(passFeedback, 0, 0, w); err != nil {
			return err
		}
	}
	minDeficit := demandSum - capSum
	if minDeficit < 0 {
		minDeficit = 0
	}
	res.Stage = s.stage
	res.Actions = s.actions
	res.Loads = s.loads
	res.Capacities = s.caps
	res.Rates = s.rates
	res.Welfare = welfare
	res.OptWelfare = s.optWelfare(capSum)
	res.ServerLoad = serverLoad
	res.MinDeficit = minDeficit
	res.ViewSwaps = s.stageViewSwaps
	for _, obs := range s.observers {
		obs.ObserveStage(*res)
	}
	if s.inst != nil {
		s.inst.FinishSeconds.Observe(float64(s.inst.Now()-t0) / 1e9)
		s.inst.Stages.Inc()
	}
	s.stage++
	return nil
}

// feedback delivers peer i, whose record is p, its realized rate.
//
//rths:hotpath
func (s *System) feedback(i int, p *peer) error {
	// The selector is fed its own (view-local) action back; the realized
	// rate was routed through the global id.
	act := s.actions[i]
	if p.view != nil {
		act = s.viewActions[i]
	}
	if err := p.feedback(act, s.rates[i]/s.scale); err != nil {
		return feedbackErr(i, err)
	}
	return nil
}

// selectionErr builds the invalid-selection errors off the hot path
// (view=true: the view-local action was out of range; view=false: the
// routed global helper id was).
func selectionErr(i, a int, view bool) error {
	if view {
		return fmt.Errorf("core: peer %d selected invalid view action %d", i, a)
	}
	return fmt.Errorf("core: peer %d selected invalid helper %d", i, a)
}

// feedbackErr wraps a learner-feedback failure off the hot path.
func feedbackErr(i int, err error) error {
	return fmt.Errorf("core: peer %d feedback: %w", i, err)
}

// optWelfare is the stage-optimal social welfare: the sum of the min(N,H)
// largest capacities. capSum is the already-computed total capacity, which
// answers the common N >= H case without another pass.
func (s *System) optWelfare(capSum float64) float64 {
	if len(s.peers) >= len(s.caps) {
		return capSum
	}
	return topSum(s.caps, s.capScratch, len(s.peers))
}

// topSum returns the sum of the n largest values in caps using scratch
// (len(scratch) >= len(caps)) as a reusable partial-selection buffer —
// O(n·H) worst case and allocation-free, replacing the sort-of-a-copy the
// sequential engine used to pay every stage.
func topSum(caps, scratch []float64, n int) float64 {
	sc := scratch[:len(caps)]
	copy(sc, caps)
	sum := 0.0
	for i := 0; i < n; i++ {
		maxIdx := i
		for j := i + 1; j < len(sc); j++ {
			if sc[j] > sc[maxIdx] {
				maxIdx = j
			}
		}
		sc[i], sc[maxIdx] = sc[maxIdx], sc[i]
		sum += sc[i]
	}
	return sum
}

// SelectStage runs only the simultaneous-selection pass of a stage — the
// first half of the split-phase protocol the distributed runtime
// (internal/distsim) drives when helper capacities are realized on remote
// nodes. The returned action and load slices alias internal buffers that
// the next stage overwrites. The helpers' bandwidth processes are NOT
// advanced: the caller owns them between SelectStage and FinishStage (see
// HelperProcess).
func (s *System) SelectStage() (actions []int, loads []int, err error) {
	if s.midStage {
		return nil, nil, errors.New("core: SelectStage called twice without FinishStage")
	}
	if err := s.selectPhase(); err != nil {
		return nil, nil, err
	}
	s.midStage = true
	return s.actions, s.loads, nil
}

// FinishStage completes a stage begun with SelectStage using externally
// realized helper capacities (len must equal NumHelpers): rates are
// divided out, bandit feedback is delivered, and the stage metrics are
// computed exactly as Step would — the arithmetic is the same code path,
// so a distributed run that feeds back the true capacities reproduces
// Step's trajectory bit-identically. The result's slices alias
// internal buffers, as with Step.
func (s *System) FinishStage(caps []float64) (StageResult, error) {
	var res StageResult
	if !s.midStage {
		return res, errors.New("core: FinishStage without SelectStage")
	}
	if len(caps) != len(s.helpers) {
		return res, fmt.Errorf("core: FinishStage with %d capacities for %d helpers", len(caps), len(s.helpers))
	}
	copy(s.caps, caps)
	s.midStage = false
	err := s.finishInto(&res)
	return res, err
}

// HelperProcess returns helper j's bandwidth process so a distributed
// runtime can host it on a remote node. A system driven through the
// SelectStage/FinishStage split never advances the process itself; calling
// Step or Run while another goroutine owns the returned process is a data
// race.
func (s *System) HelperProcess(j int) *markov.Process {
	return s.helpers[j].proc
}

// HelperLevels returns a copy of helper j's bandwidth levels in
// state-index order.
func (s *System) HelperLevels(j int) []float64 {
	return append([]float64(nil), s.helpers[j].levels...)
}

// HelperCapacity returns helper j's bandwidth at its process's current
// state (the node-side companion of HelperProcess).
func (s *System) HelperCapacity(j int) float64 { return s.helpers[j].capacity() }

// Run advances the system `stages` stages, invoking observe (if non-nil)
// after each. The observed result's slices alias the same internal buffers
// Step reuses: read them synchronously inside the callback, or call
// StageResult.Clone to retain them past it.
func (s *System) Run(stages int, observe func(StageResult)) error {
	var res StageResult
	for k := 0; k < stages; k++ {
		if err := s.stepInto(&res); err != nil {
			return err
		}
		if observe != nil {
			observe(res)
		}
	}
	return nil
}

// AddPeer joins a new peer mid-run using the given selector (nil builds the
// default RTHS learner, sized to NewPeerActions, in the system arena).
// Returns the new peer's index. A rejected join changes nothing.
func (s *System) AddPeer(sel Selector, demand float64) (int, error) {
	if s.midStage {
		return 0, errors.New("core: AddPeer during an open SelectStage/FinishStage pair (peer churn must happen between stages)")
	}
	if !(demand >= 0 && demand <= math.MaxFloat64) {
		return 0, fmt.Errorf("core: AddPeer demand %g must be finite and non-negative", demand)
	}
	if sel == nil {
		// Built only once every check has passed: an arena-born learner
		// holds a slot from birth.
		lrn, err := s.newLearner()
		if err != nil {
			return 0, fmt.Errorf("core: AddPeer: %w", err)
		}
		sel = lrn
	} else {
		if sel.NumActions() != s.NewPeerActions() {
			return 0, fmt.Errorf("core: AddPeer selector has %d actions, want %d",
				sel.NumActions(), s.NewPeerActions())
		}
		if err := s.checkViewCompatible(sel); err != nil {
			return 0, fmt.Errorf("core: AddPeer: %w", err)
		}
	}
	s.addPeer(newPeer(sel, demand))
	s.actions = append(s.actions, 0)
	s.viewActions = append(s.viewActions, 0)
	s.rates = append(s.rates, 0)
	// Append-only: joining can't change earlier peers' observer status,
	// so churn-heavy workloads don't pay a full O(n) rescan per join.
	if obs, ok := sel.(StageObserver); ok {
		s.observers = append(s.observers, obs)
	}
	return len(s.peers) - 1, nil
}

// RemovePeer removes peer i (departure churn). Later peers shift down.
// The removed peer's selector is destroyed with it — references obtained
// earlier via Selector(i) must not be used afterwards (a default RTHS
// learner's arena slot is reclaimed without copying the state out).
func (s *System) RemovePeer(i int) error {
	if s.midStage {
		return errors.New("core: RemovePeer during an open SelectStage/FinishStage pair (peer churn must happen between stages)")
	}
	if i < 0 || i >= len(s.peers) {
		return fmt.Errorf("core: RemovePeer(%d) with %d peers", i, len(s.peers))
	}
	removed := s.peers[i]
	s.discard(removed)
	if removed.lrn == nil {
		s.nonLearners--
	}
	s.peers = append(s.peers[:i], s.peers[i+1:]...)
	s.actions = s.actions[:len(s.peers)]
	s.viewActions = s.viewActions[:len(s.peers)]
	s.rates = s.rates[:len(s.peers)]
	// Only an observer's departure changes the observer list; skip the
	// O(n) rescan for everyone else (the paper's pure-bandit peers).
	if _, ok := removed.sel.(StageObserver); ok {
		s.rebuildObservers()
	}
	return nil
}

// SetHelperLevels replaces helper j's bandwidth levels mid-run (a capacity
// regime change — the non-stationarity regret tracking is built for). The
// helper restarts its level chain with the same switching behaviour; levels
// must stay within the system's utility scale so past feedback keeps its
// normalization.
func (s *System) SetHelperLevels(j int, levels []float64, switchProb float64) error {
	if j < 0 || j >= len(s.helpers) {
		return fmt.Errorf("core: SetHelperLevels(%d) with %d helpers", j, len(s.helpers))
	}
	for _, lv := range levels {
		if lv > s.scale {
			return fmt.Errorf("core: SetHelperLevels level %g exceeds utility scale %g", lv, s.scale)
		}
	}
	h, err := newHelper(HelperSpec{Levels: levels, SwitchProb: switchProb, InitState: -1}, s.rng.Split())
	if err != nil {
		return fmt.Errorf("core: SetHelperLevels: %w", err)
	}
	s.helpers[j] = h
	return nil
}

// AddHelper joins a new helper mid-run. Full-view peers grow their action
// set by one; partial-view peers below the ViewSize bound adopt the new
// helper immediately (their view has room), while peers with full views
// leave it to the periodic refresh pass — so a helper migrating in
// touches only the peers whose views can see it. When the addition first
// pushes a ViewSize-configured pool past the bound, partial views engage
// lazily (engageViews): every peer shrinks from its full view down to
// ViewSize through the regular churn seam. Every touched peer's
// policy must support dynamic action sets. Helper churn is part of the
// between-stages protocol: calling it inside an open
// SelectStage/FinishStage pair is an error (the learners' pending
// selections would be invalidated, surfacing later as a baffling
// "does not match selected action -1" feedback failure).
func (s *System) AddHelper(spec HelperSpec) error {
	if s.midStage {
		return errors.New("core: AddHelper during an open SelectStage/FinishStage pair (helper churn must happen between stages)")
	}
	for i, p := range s.peers {
		if p.view != nil {
			// Partial-view peers adopt the helper only if their view has
			// room AND their policy supports churn; otherwise they simply
			// don't see it (the refresh pass may sample it in later), so
			// they never block the addition.
			continue
		}
		if _, ok := p.sel.(DynamicSelector); !ok {
			return fmt.Errorf("core: peer %d policy %T does not support helper churn", i, p.sel)
		}
	}
	engaging := s.viewMaster == nil && s.viewSize > 0 && len(s.helpers)+1 > s.viewSize
	if engaging {
		// Crossing the bound engages partial views for every resident
		// peer, so the construction-time compatibility rule applies now:
		// StageObserver policies read global stage state that a view
		// cannot route view-locally.
		for i, p := range s.peers {
			if _, ok := p.sel.(StageObserver); ok {
				return fmt.Errorf("core: AddHelper would engage partial views (ViewSize=%d): peer %d policy %T observes global stage state, which partial views cannot route view-locally", s.viewSize, i, p.sel)
			}
		}
	}
	h, err := newHelper(spec, s.rng.Split())
	if err != nil {
		return fmt.Errorf("core: AddHelper: %w", err)
	}
	for _, lv := range h.levels {
		if lv > s.scale {
			// Keep normalization stable: warn-by-error rather than silently
			// rescaling past feedback.
			return fmt.Errorf("core: AddHelper level %g exceeds utility scale %g", lv, s.scale)
		}
	}
	s.helpers = append(s.helpers, h)
	s.loads = append(s.loads, 0)
	s.caps = append(s.caps, 0)
	s.helperRates = append(s.helperRates, 0)
	s.capScratch = append(s.capScratch, 0)
	if s.viewMaster != nil {
		s.viewMark = append(s.viewMark, false)
		s.viewIdx = append(s.viewIdx, 0)
	}
	if s.viewMaster != nil {
		s.addActions(len(s.helpers) - 1)
	} else if len(s.peers) > 0 {
		// Full-view learners all share m, so the first one's AddAction
		// regrows the arena, if it must, before the fork: no block ever
		// regrows it under another block's learners.
		s.peers[0].addAction()
		s.runBlocks(passAddAction, 0, 1, s.blockWidth(len(s.helpers)))
	}
	if engaging {
		s.engageViews()
	}
	return nil
}

// addActions is AddHelper's partial-view pass, run in peer order: peers
// with room in their view adopt helper newID.
func (s *System) addActions(newID int) {
	for _, p := range s.peers {
		if p.view.Len() < s.viewSize {
			if dyn, ok := p.sel.(DynamicSelector); ok {
				dyn.AddAction()
				p.view.Add(newID)
				p.viewChangedAt = s.stage
			}
		}
	}
}

// engageViews switches the system from full views to partial views — the
// seam AddHelper crosses when growth first pushes a ViewSize-configured
// pool past the bound. The view master stream is split from the system
// stream only now (a system whose pool never crosses the bound consumes
// no view randomness at all, keeping the full-view equivalence exact),
// then every peer draws its private view stream and shrinks from the
// identity view down to the bound through the regular
// AddAction/RemoveAction churn seam: RTHS learners repeatedly drop their
// lowest-probability action — keeping the helpers their play history
// already favors — while other dynamic policies drop from the top.
// All draws come from the system's own streams, so engagement is
// deterministic and identical across execution backends.
func (s *System) engageViews() {
	s.viewMaster = s.rng.Split()
	s.viewMark = make([]bool, len(s.helpers))
	s.viewIdx = make([]int, len(s.helpers))
	for _, p := range s.peers {
		p.viewRng = s.viewMaster.Split()
		ids := make([]int, len(s.helpers))
		for j := range ids {
			ids[j] = j
		}
		p.view = regret.NewView(ids)
		dyn := p.sel.(DynamicSelector)
		for p.view.Len() > s.viewSize {
			k := p.view.Len() - 1
			if p.lrn != nil {
				k = p.lrn.MinProbAction()
			}
			dyn.RemoveAction(k)
			p.view.RemoveLocal(k)
		}
		p.viewChangedAt = s.stage
	}
}

// RemoveHelper removes helper j (crash / departure). Full-view peers drop
// action j; partial-view peers are touched only when j is in their view —
// they drop the view-local action (and, if j was their only in-view
// helper, immediately swap in a uniformly sampled replacement so the
// action set never empties), everyone else just renumbers. Every touched
// peer's policy must support dynamic action sets; helper indices above j
// shift down. Like AddHelper, it is rejected inside an open
// SelectStage/FinishStage pair.
func (s *System) RemoveHelper(j int) error {
	if s.midStage {
		return errors.New("core: RemoveHelper during an open SelectStage/FinishStage pair (helper churn must happen between stages)")
	}
	if j < 0 || j >= len(s.helpers) {
		return fmt.Errorf("core: RemoveHelper(%d) with %d helpers", j, len(s.helpers))
	}
	if len(s.helpers) == 1 {
		return errors.New("core: RemoveHelper would leave no helpers")
	}
	for i, p := range s.peers {
		if p.view != nil && p.view.Local(j) < 0 {
			continue // out of view: only renumbered, never churned
		}
		if _, ok := p.sel.(DynamicSelector); !ok {
			return fmt.Errorf("core: peer %d policy %T does not support helper churn", i, p.sel)
		}
	}
	for _, p := range s.peers {
		if p.view == nil {
			continue
		}
		if k := p.view.Local(j); k >= 0 {
			dyn := p.sel.(DynamicSelector)
			if p.view.Len() == 1 {
				// Last in-view helper: swap in a replacement (add before
				// remove, so the selector's action set never empties).
				// len(s.helpers) >= 2 here, so an unseen helper exists.
				u := s.sampleUnseen(p)
				dyn.AddAction()
				p.view.Add(u)
			}
			dyn.RemoveAction(k)
			p.view.RemoveLocal(k)
			p.viewChangedAt = s.stage
		}
		p.view.ShiftDown(j)
	}
	s.helpers = append(s.helpers[:j], s.helpers[j+1:]...)
	s.loads = s.loads[:len(s.helpers)]
	s.caps = s.caps[:len(s.helpers)]
	s.helperRates = s.helperRates[:len(s.helpers)]
	s.capScratch = s.capScratch[:len(s.helpers)]
	if s.viewMaster != nil {
		s.viewMark = s.viewMark[:len(s.helpers)]
		s.viewIdx = s.viewIdx[:len(s.helpers)]
		return nil
	}
	s.runBlocks(passRemoveAction, j, 0, s.blockWidth(len(s.helpers)+1))
	return nil
}

// blockMinWork is the pass size, in peers × actions per peer, from which
// the RNG-free per-learner passes run in blocks on the fork-join
// executor. Below it the fork's wake-ups and the split pass cost more
// than a second core saves. It is read from BenchmarkFeedbackPass's
// crossover table (PERF.md "The fork-join executor").
const blockMinWork = 12000

// blocksPerLane is how many contiguous peer blocks a pass forks per
// lane: enough that a lane joining late, or finishing early, still finds
// blocks to claim.
const blocksPerLane = 4

type passKind uint8

const (
	passFeedback passKind = iota
	passAddAction
	passRemoveAction
)

// blockPass is the executor's task over fixed contiguous blocks of
// peers: Do(b) runs one RNG-free per-learner pass over block b. Each
// peer's learner touches only its own state (and its own arena slot), so
// the blocks may run on any lane in any order without changing a bit.
type blockPass struct {
	s      *System
	kind   passKind
	k      int // passRemoveAction: the removed action
	lo, n  int // the pass covers peers [lo, lo+n)
	blocks int
	errs   []error // passFeedback: each block's first failure
}

// blockWidth returns the lanes a per-learner pass over every peer, each
// with the given action count, forks on: 1 (sequential) unless every
// policy is the RTHS learner and the gate opens.
func (s *System) blockWidth(actions int) int {
	if s.nonLearners > 0 {
		return 1
	}
	return s.blocks.Width(len(s.peers), len(s.peers)*actions)
}

// runBlocks forks a per-learner pass over peers [lo, NumPeers) in
// blocksPerLane blocks per lane and joins it; at width 1 the blocks run
// inline, in peer order. A feedback pass returns the failure of the
// lowest failing peer.
//
//rths:hotpath
func (s *System) runBlocks(kind passKind, k, lo, width int) error {
	b := &s.pass
	b.kind, b.k, b.lo, b.n = kind, k, lo, len(s.peers)-lo
	b.blocks = min(b.n, blocksPerLane*width)
	if len(b.errs) < b.blocks {
		b.growErrs()
	}
	s.group.Run(b.blocks, width, b)
	if kind == passFeedback {
		for _, err := range b.errs[:b.blocks] {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// growErrs sizes the per-block error slots for the current pass. Cold:
// runs when a pass first forks more blocks than any before it.
func (b *blockPass) growErrs() { b.errs = make([]error, b.blocks) }

// Do runs block i of the pass.
//
//rths:hotpath
func (b *blockPass) Do(i int) {
	lo, hi := b.lo+i*b.n/b.blocks, b.lo+(i+1)*b.n/b.blocks
	switch b.kind {
	case passFeedback:
		// Stop at the block's first failure: the lowest failing peer.
		b.errs[i] = nil
		for j := lo; j < hi && b.errs[i] == nil; j++ {
			b.errs[i] = b.s.feedback(j, b.s.peers[j])
		}
	case passAddAction:
		for _, p := range b.s.peers[lo:hi] {
			p.addAction()
		}
	case passRemoveAction:
		for _, p := range b.s.peers[lo:hi] {
			p.removeAction(b.k)
		}
	}
}
