// Package cluster is the multi-channel runtime of the paper's title: many
// live channels share one pool of helper micro-servers, the pool is
// re-assigned across channels as audiences shift (the §V helper-level
// allocation), and inside each channel every peer adapts its selection with
// RTHS over the channel's *current* pool. It composes the pieces the
// repository already has — internal/core for the per-channel game,
// internal/alloc for the helper-level allocators, internal/markov for
// channel-switching viewers, internal/streaming for playback continuity —
// into one engine with two loops:
//
//   - The stage loop steps every channel. Channels are independent systems
//     with private RNG streams, run as message-passing nodes on
//     internal/distsim: a manager node per channel, a node per helper, one
//     protocol round per stage. The runtime forks the managers on the
//     fork-join executor when GOMAXPROCS and the stage size make it pay,
//     and steps them inline otherwise. Per-epoch aggregates are reduced in
//     channel-index order, so results are bit-identical with the fork on
//     or off (pinned by TestDeterministicAcrossWorkers). The tests
//     cross-check every stage against a naive reference executor
//     (TestDistsimBackendBitIdentical).
//
//   - The churn surface addresses viewers by global id: Join/Leave/Switch
//     (and Apply for trace events) mutate membership between stages, and
//     Replay/ReplayTotals drive a whole trace.Workload through the engine —
//     each stage's events applied before the stage steps — so replayed
//     workloads compose with flash crowds, Markov switching, re-allocation
//     epochs and forked channels (distsim applies the ops as queued
//     control messages at the next round).
//
//   - The epoch loop fires every EpochStages stages: per-channel demands
//     (audience × bitrate) are measured, the configured allocator proposes
//     a new helper→channel assignment, and if it beats the current one by
//     more than Hysteresis in maximum deficit the moved helpers migrate —
//     RemoveHelper on the losing channel, AddHelper on the gaining one,
//     which drives AddAction/RemoveAction churn through every affected
//     peer's learner. The migration executes as control messages between
//     channel-manager nodes and the helper nodes.
//
// All channels share one utility scale (the global maximum helper level,
// via core.Config.UtilityScale) so a migrating helper never exceeds the
// receiving channel's normalization.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"rths/internal/alloc"
	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/markov"
	"rths/internal/telemetry"
	"rths/internal/trace"
	"rths/internal/xrand"
)

// AllocatorKind selects the epoch re-allocation policy.
type AllocatorKind int

// Allocator kinds.
const (
	// AllocGreedy re-assigns with alloc.Greedy (largest-remaining-deficit
	// first); the default.
	AllocGreedy AllocatorKind = iota
	// AllocProportional sizes per-channel pools with alloc.Proportional and
	// deals helpers in index order.
	AllocProportional
	// AllocStatic freezes the initial assignment — the baseline the
	// adaptive allocators are measured against.
	AllocStatic
)

func (k AllocatorKind) String() string {
	switch k {
	case AllocGreedy:
		return "greedy"
	case AllocProportional:
		return "proportional"
	case AllocStatic:
		return "static"
	default:
		return fmt.Sprintf("AllocatorKind(%d)", int(k))
	}
}

// ChannelSpec describes one live channel.
type ChannelSpec struct {
	// Name identifies the channel in results.
	Name string
	// Bitrate is the media bitrate (kbps); it becomes each viewer's demand.
	Bitrate float64
	// InitialPeers seeds the audience.
	InitialPeers int
}

// SwitchingConfig enables Markov channel-switching viewers: each stage a
// viewer stays on its channel with probability 1-SwitchProb, otherwise it
// zaps to another channel with probability proportional to that channel's
// Zipf popularity weight (rank^-ZipfS in channel order).
type SwitchingConfig struct {
	SwitchProb float64
	ZipfS      float64
}

// FlashCrowd injects Peers new viewers into Channel at Stage — the event
// that shifts demand faster than any stationary workload and makes the
// re-allocation loop earn its keep.
type FlashCrowd struct {
	Stage   int
	Channel int
	Peers   int
}

// Config assembles a cluster.
type Config struct {
	// Channels are the live channels; len >= 1.
	Channels []ChannelSpec
	// Helpers is the shared global pool; len >= len(Channels) so that every
	// channel can always hold at least one helper.
	Helpers []core.HelperSpec
	// Allocator picks the re-allocation policy (default AllocGreedy).
	Allocator AllocatorKind
	// EpochStages is the number of stages between re-allocation epochs
	// (default 50).
	EpochStages int
	// Hysteresis is the minimum improvement in maximum deficit (kbps) a
	// proposed assignment must deliver before helpers migrate. 0 means any
	// strict improvement triggers migration; ties never migrate, so a
	// steady workload reaches a fixed assignment and stops churning.
	Hysteresis float64
	// Seed drives all randomness.
	Seed uint64
	// Factory builds selection policies (nil = RTHS learners). Policies
	// must implement core.DynamicSelector for helper migration to work.
	// Channel managers call it, and forked managers call it concurrently
	// (different channels on different lanes), so it must be safe for
	// concurrent use (stateless factories, like every factory in this
	// repository, are).
	Factory core.SelectorFactory
	// Switching enables Markov channel-switching viewers (nil disables).
	Switching *SwitchingConfig
	// Flash are scheduled flash-crowd events (may be empty).
	Flash []FlashCrowd
	// StartupStages is the playout-buffer startup threshold in stages of
	// media (default 2); it shapes the continuity metric.
	StartupStages float64
	// ViewSize bounds each viewer's helper candidate view inside its
	// channel (see core.Config.ViewSize): selection policies run on
	// ViewSize actions, mapped to global helper ids through a per-peer
	// view, so per-viewer learner state is O(ViewSize²) and helper
	// migration touches only the viewers whose views contain the moved
	// helper. 0 keeps full views (today's behavior bit-for-bit). The
	// bound follows core's engagement discipline, applied per channel:
	// views engage in a channel when its pool exceeds ViewSize — at
	// construction if the initial pool is already larger, or lazily when
	// migration first grows the pool past the bound (resident learners
	// then shrink their views down to ViewSize, keeping their
	// highest-probability helpers).
	ViewSize int
	// ViewRefresh is the partial-view refresh period in stages (see
	// core.Config.ViewRefresh; 0 = default, negative disables).
	ViewRefresh int
	// Link adjudicates every data-plane message of the message-passing
	// runtime (nil = perfect links). A perfect Lossy{} drops and delays
	// nothing and draws no random numbers, so it runs bit-identically to
	// a nil Link. LinkSeed derives the link streams.
	Link     distsim.LinkModel
	LinkSeed uint64
	// Faults schedules deterministic faults on the runtime (see
	// distsim.FaultPlan): fail-stop helper crashes with recovery,
	// regional partitions over fault domains (domains index this config's
	// global helpers and channels), and the queueing semantics switch for
	// late batches. The epoch MaxDeficit metric is fault-honest whenever
	// Faults is set: helpers the plan makes unreachable at the boundary
	// count zero expected capacity, detector or no detector.
	Faults *distsim.FaultPlan
	// Detector enables failure-aware eviction (see DetectorConfig):
	// helpers that miss consecutive capacity replies are evicted through
	// the regular churn path and readmitted after probation.
	Detector *DetectorConfig
	// Metrics, when non-nil, registers the cluster's instrument set on the
	// registry: epoch gauges (welfare ratio, continuity, max deficit,
	// active peers, helpers down), lifetime counters (stages, epochs,
	// migrations, churn, detector verdicts, distsim round accounting) and
	// histograms (stage wall time, distsim batch sizes), and it turns on
	// the runtime's round spans, which feed the barrier-tax gauge.
	// Instruments only observe — they consume no randomness and feed
	// nothing back into the run, so enabling them never changes any
	// deterministic output. nil disables telemetry at the cost of one
	// pointer check per stage.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the structured lifecycle event stream
	// (epoch boundaries, helper migrations, detector suspect/evict/readmit,
	// fault windows, view refreshes, viewer churn) as JSONL. Events are
	// stamped with the stage clock, never wall time, and emitted by the
	// director alone in a fixed order — a trace is byte-identical across
	// equal-seed runs, at any fork width. The caller owns flushing
	// (telemetry.Tracer.Flush) and the underlying writer.
	Trace *telemetry.Tracer
	// SeriesEvery > 0 emits periodic per-entity samples into Trace every
	// SeriesEvery stages: one "series" event per channel per series name
	// (active_peers, pool_helpers, welfare_ratio, continuity — ascending
	// channel order) and per helper (assign, down — ascending helper id).
	// All values are stage-clock-deterministic, so the trace stays
	// byte-identical across equal-seed runs. 0 disables; a positive value
	// without Trace is rejected.
	SeriesEvery int
}

// EpochMetrics is the cluster's per-epoch observable — the JSON record
// cmd/rths-cluster emits. All fields are reduced in channel-index order,
// so a fixed Seed yields bit-identical values at any fork width.
type EpochMetrics struct {
	// Epoch is the 0-based epoch index; the epoch covers the Stages stages
	// since the previous boundary. Stages equals Config.EpochStages except
	// for a trailing partial epoch flushed by Replay, which reports its
	// actual length.
	Epoch  int `json:"epoch"`
	Stages int `json:"stages"`
	// ActivePeers is the audience size at the epoch boundary.
	ActivePeers int `json:"active_peers"`
	// WelfareRatio is Σ welfare / Σ optimal welfare over the epoch's stages
	// (1 when the optimum is zero).
	WelfareRatio float64 `json:"welfare_ratio"`
	// MeanServerLoad is the per-stage mean of the surplus demand the origin
	// server absorbs (kbps).
	MeanServerLoad float64 `json:"mean_server_load"`
	// MeanMinDeficit is the per-stage mean of the analytic minimum
	// bandwidth deficit (kbps).
	MeanMinDeficit float64 `json:"mean_min_deficit"`
	// Continuity is played/(played+stalled) across all viewer playout
	// buffers over the epoch (1 when no viewer ticked).
	Continuity float64 `json:"continuity"`
	// MaxDeficit is the worst channel's residual demand (kbps) under the
	// post-boundary assignment and expected helper capacities — the
	// quantity the greedy allocator minimizes.
	MaxDeficit float64 `json:"max_deficit"`
	// Moves is the number of helpers migrated at this epoch's boundary.
	Moves int `json:"helper_moves"`
	// Switches is the number of viewer channel switches during the epoch
	// (Markov zapping and replayed trace switches alike).
	Switches int `json:"viewer_switches"`
	// Joins is the number of viewers that joined during the epoch.
	Joins int `json:"viewer_joins"`
	// Leaves is the number of viewers that departed during the epoch.
	Leaves int `json:"viewer_leaves"`
	// LateServed counts late attach batches buffered and served under
	// queueing-link semantics during the epoch (FaultPlan.Queueing; 0
	// otherwise).
	LateServed int `json:"late_served_batches"`
	// FaultMsgs counts helper exchanges the fault plan suppressed during
	// the epoch (crashed helpers, severed partitions).
	FaultMsgs int `json:"fault_msgs"`
	// Suspected counts helpers that crossed the detector's
	// consecutive-miss threshold during the epoch.
	Suspected int `json:"suspected_helpers"`
	// Evicted counts detector evictions during the epoch.
	Evicted int `json:"evicted_helpers"`
	// Readmitted counts post-probation readmissions during the epoch.
	Readmitted int `json:"readmitted_helpers"`
	// HelpersDown is the number of helpers sitting evicted at the epoch
	// boundary.
	HelpersDown int `json:"helpers_down"`
	// MeanTimeToRecover is the mean outage length in stages (first missed
	// reply to first clean reply after readmission) over the recoveries
	// completed this epoch (0 when none completed).
	MeanTimeToRecover float64 `json:"mean_time_to_recover"`
}

type globalHelper struct {
	spec core.HelperSpec
	// expCap is the stationary-expected capacity: the sticky level chain's
	// stationary distribution is uniform, so this is the mean level.
	expCap float64
}

// stageData is one channel's per-stage observables, handed up by the
// execution backend and accumulated by the director.
type stageData struct {
	welfare    float64
	opt        float64
	serverLoad float64
	minDeficit float64
	played     int
	stalled    int
	lateServed int
	faultMsgs  int
	// Telemetry-only observables: distsim round accounting and partial-view
	// refresh swaps. Consumed per stage by the instrument set and the event
	// trace, not accumulated into epoch metrics.
	msgs      int
	batches   int
	lost      int
	late      int
	viewSwaps int
}

func (a *stageData) accumulate(s stageData) {
	a.welfare += s.welfare
	a.opt += s.opt
	a.serverLoad += s.serverLoad
	a.minDeficit += s.minDeficit
	a.played += s.played
	a.stalled += s.stalled
	a.lateServed += s.lateServed
	a.faultMsgs += s.faultMsgs
}

// backend executes the per-channel systems for the director: the distsim
// runtime, or in tests the reference executor that cross-checks it.
// Membership and migration calls may be applied immediately (reference)
// or queued and applied — in call order — at the start of the next step
// (distsim); the director always issues every op for a stage before
// stepping it, so the two disciplines are equivalent.
type backend interface {
	// addPeer joins a viewer to channel ci (appended at the next local
	// index), with the channel's bitrate as demand and a fresh buffer.
	addPeer(ci int) error
	// removePeer departs the viewer at local index; later indices shift.
	removePeer(ci, local int) error
	// addHelper migrates global helper id (with its spec) into channel ci.
	addHelper(ci, id int, spec core.HelperSpec) error
	// removeHelper migrates the helper at local pool index out of ci.
	removeHelper(ci, local, id int) error
	// step advances every channel one stage, filling out[ci].
	step(out []stageData) error
	// lastResult returns channel ci's most recent per-stage view. The
	// slices alias backend buffers that the next step overwrites — clone to
	// retain.
	lastResult(ci int) core.StageResult
	// eachReply walks the most recent step's capacity-reply ledger: one
	// call per pool helper per channel, with the helper's global id and
	// whether its exchange failed (drop, fatal delay, crash, partition).
	eachReply(fn func(helper int, missed bool))
	// roundProfile returns the most recent step's critical-path
	// attribution and the cumulative barrier tax; ok is false when the
	// backend doesn't profile rounds (spans disabled).
	roundProfile() (p distsim.RoundProfile, barrierTax float64, ok bool)
	// close releases backend resources (ends the distsim runtime).
	close() error
}

// channel is the director's view of one live channel: identity plus the
// viewer/helper bookkeeping that scenario events and migration need. The
// execution state (systems, learners, buffers) lives in the backend.
type channel struct {
	name      string
	bitrate   float64
	peerIDs   []int // global viewer ids, parallel to backend peer indices
	helperIDs []int // global helper ids, parallel to backend pool indices
}

// Cluster is a running multi-channel system.
type Cluster struct {
	channels []*channel
	helpers  []globalHelper
	assign   alloc.Assignment // helper -> channel

	backend backend

	// viewerIDs lists active viewers in ascending global id — the
	// deterministic iteration order of the switching pass — and viewerCh
	// holds each one's channel, by position. Ops find a viewer by binary
	// search; its local index is its position in its channel's peerIDs.
	viewerIDs []int
	viewerCh  []int

	allocator   AllocatorKind
	epochStages int
	hysteresis  float64
	startup     float64
	scale       float64 // shared utility scale

	switchChain *markov.Chain
	viewerRng   *xrand.Rand
	flash       []FlashCrowd // sorted by stage
	flashIdx    int

	stage  int
	epoch  int
	nextID int

	// freeIDs is a min-heap of global viewer ids freed by Leave below
	// nextID: scenario joins (flash crowds) pop the smallest free id, so
	// under sustained leave/re-join churn the scenario id space stays
	// dense instead of growing without bound — and a join is O(log n)
	// rather than a scan. Replayed workloads bring their own (offset) id
	// space; their freed ids sit above nextID and are never recycled, so
	// scenario joins cannot collide with future trace joins.
	freeIDs []int

	// stagesInEpoch counts stages since the last boundary, so partial
	// epochs (a Replay horizon that does not divide EpochStages) report
	// honest per-stage means.
	stagesInEpoch int

	// Per-epoch event counters.
	switches int
	joins    int
	leaves   int

	// Per-channel epoch accumulators and per-stage scratch.
	acc     []stageData
	scratch []stageData

	// Reusable epoch scratch.
	demands []alloc.Channel
	expCaps []float64
	effCaps []float64 // fault-honest boundary scratch (Faults only)

	// Fault schedule and failure-detector state (nil / empty without the
	// corresponding config).
	faults   *distsim.FaultPlan
	detector *DetectorConfig
	// misses counts consecutive missed capacity replies per helper;
	// evicted/evictedAt track eviction state, downAt the stage of the
	// first missed reply of the current outage (-1 when reachable), and
	// wasEvicted marks helpers whose next clean reply completes a
	// recovery measurement.
	misses     []int
	evicted    []bool
	evictedAt  []int
	downAt     []int
	wasEvicted []bool

	// Per-epoch detector counters.
	suspectedE  int
	evictedE    int
	readmittedE int
	recoverSum  float64
	recoverN    int

	// tel is the instrument set — always non-nil; with no registry its
	// instruments are nil and no-op. trace is the lifecycle event stream
	// (nil disables); seriesEvery is the per-entity sampling period into
	// it (0 disables).
	tel         *clusterTelemetry
	trace       *telemetry.Tracer
	seriesEvery int

	// spans is the distsim round-span ring (telemetry only); chSupply is
	// reusable boundary scratch for per-channel assigned capacity.
	spans    *telemetry.Recorder
	chSupply []float64
}

// New builds a cluster from the config.
func New(cfg Config) (*Cluster, error) { return newCluster(cfg, newDistBackend) }

// newBackend builds a cluster's execution backend once newCluster has
// derived the initial assignment, the channel seeds, the shared utility
// scale and the instruments. Tests pass a reference executor here.
type newBackend func(c *Cluster, cfg Config, seeds []uint64) (backend, error)

// newCluster is New with the execution backend built by build.
func newCluster(cfg Config, build newBackend) (*Cluster, error) {
	if len(cfg.Channels) == 0 {
		return nil, errors.New("cluster: no channels")
	}
	if len(cfg.Helpers) < len(cfg.Channels) {
		return nil, fmt.Errorf("cluster: %d helpers for %d channels (need at least one per channel)",
			len(cfg.Helpers), len(cfg.Channels))
	}
	if cfg.EpochStages < 0 {
		return nil, fmt.Errorf("cluster: EpochStages=%d", cfg.EpochStages)
	}
	// Each float check is written so NaN fails it too.
	if !(cfg.Hysteresis >= 0 && cfg.Hysteresis <= math.MaxFloat64) {
		return nil, fmt.Errorf("cluster: Hysteresis=%g must be finite and non-negative", cfg.Hysteresis)
	}
	if !(cfg.StartupStages >= 0 && cfg.StartupStages <= math.MaxFloat64) {
		return nil, fmt.Errorf("cluster: StartupStages=%g must be finite and non-negative", cfg.StartupStages)
	}
	switch cfg.Allocator {
	case AllocGreedy, AllocProportional, AllocStatic:
	default:
		return nil, fmt.Errorf("cluster: unknown allocator %v", cfg.Allocator)
	}
	if cfg.ViewSize < 0 {
		return nil, fmt.Errorf("cluster: ViewSize=%d", cfg.ViewSize)
	}
	if cfg.SeriesEvery < 0 {
		return nil, fmt.Errorf("cluster: SeriesEvery=%d", cfg.SeriesEvery)
	}
	if cfg.SeriesEvery > 0 && cfg.Trace == nil {
		return nil, fmt.Errorf("cluster: SeriesEvery=%d requires Trace", cfg.SeriesEvery)
	}
	if cfg.Detector != nil {
		if err := cfg.Detector.validate(); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		allocator:   cfg.Allocator,
		epochStages: cfg.EpochStages,
		hysteresis:  cfg.Hysteresis,
		startup:     cfg.StartupStages,
	}
	if c.epochStages == 0 {
		c.epochStages = 50
	}
	if c.startup == 0 {
		c.startup = 2
	}

	// Global pool: expected capacities and the shared utility scale.
	scale := 0.0
	c.helpers = make([]globalHelper, len(cfg.Helpers))
	for h, spec := range cfg.Helpers {
		if len(spec.Levels) == 0 {
			return nil, fmt.Errorf("cluster: helper %d has no levels", h)
		}
		sum := 0.0
		for _, lv := range spec.Levels {
			if !(lv > 0 && lv <= math.MaxFloat64) {
				return nil, fmt.Errorf("cluster: helper %d level %g must be positive and finite", h, lv)
			}
			sum += lv
			if lv > scale {
				scale = lv
			}
		}
		c.helpers[h] = globalHelper{spec: spec, expCap: sum / float64(len(spec.Levels))}
	}
	c.scale = scale
	c.expCaps = make([]float64, len(c.helpers))
	for h := range c.helpers {
		c.expCaps[h] = c.helpers[h].expCap
	}

	// Initial demands and assignment.
	c.demands = make([]alloc.Channel, len(cfg.Channels))
	for ci, ch := range cfg.Channels {
		if !(ch.Bitrate > 0 && ch.Bitrate <= math.MaxFloat64) {
			return nil, fmt.Errorf("cluster: channel %q Bitrate %g must be positive and finite", ch.Name, ch.Bitrate)
		}
		if ch.InitialPeers < 0 {
			return nil, fmt.Errorf("cluster: channel %q initial peers %d", ch.Name, ch.InitialPeers)
		}
		c.demands[ci] = alloc.Channel{Name: ch.Name, Demand: float64(ch.InitialPeers) * ch.Bitrate}
	}
	var err error
	if c.assign, err = c.propose(); err != nil {
		return nil, fmt.Errorf("cluster: initial allocation: %w", err)
	}

	// Director bookkeeping. The RNG budget is drawn in a fixed order
	// (viewer stream first, then one seed per channel), so construction is
	// reproducible and independent of the backend.
	master := xrand.New(cfg.Seed)
	c.viewerRng = master.Split()
	seeds := make([]uint64, len(cfg.Channels))
	for ci := range cfg.Channels {
		seeds[ci] = master.Uint64()
	}
	for ci, spec := range cfg.Channels {
		st := &channel{name: spec.Name, bitrate: spec.Bitrate}
		for h, target := range c.assign {
			if target == ci {
				st.helperIDs = append(st.helperIDs, h)
			}
		}
		for i := 0; i < spec.InitialPeers; i++ {
			st.peerIDs = append(st.peerIDs, c.nextID)
			c.viewerIDs = append(c.viewerIDs, c.nextID)
			c.viewerCh = append(c.viewerCh, ci)
			c.nextID++
		}
		c.channels = append(c.channels, st)
	}
	c.acc = make([]stageData, len(cfg.Channels))
	c.scratch = make([]stageData, len(cfg.Channels))
	names := make([]string, len(cfg.Channels))
	for ci, ch := range cfg.Channels {
		names[ci] = ch.Name
	}
	c.tel = newClusterTelemetry(cfg.Metrics, names, len(cfg.Helpers))
	c.trace = cfg.Trace
	c.seriesEvery = cfg.SeriesEvery
	if c.tel.enabled {
		// Keep a few rounds of spans per channel; bound the ring so a
		// 1k-channel fleet stays at fixed memory.
		capacity := 8 * len(cfg.Channels)
		if capacity < 256 {
			capacity = 256
		}
		if capacity > 8192 {
			capacity = 8192
		}
		c.spans = telemetry.NewRecorder(capacity)
	}

	c.faults = cfg.Faults
	if cfg.Detector != nil {
		d := *cfg.Detector
		d.applyDefaults()
		c.detector = &d
		c.misses = make([]int, len(c.helpers))
		c.evicted = make([]bool, len(c.helpers))
		c.evictedAt = make([]int, len(c.helpers))
		c.wasEvicted = make([]bool, len(c.helpers))
		c.downAt = make([]int, len(c.helpers))
		for h := range c.downAt {
			c.downAt[h] = -1
		}
	}

	if c.backend, err = build(c, cfg, seeds); err != nil {
		return nil, err
	}

	// Viewer switching chain.
	if cfg.Switching != nil {
		if len(cfg.Channels) < 2 {
			c.backend.close()
			return nil, errors.New("cluster: switching needs >= 2 channels")
		}
		weights := zipfWeights(len(cfg.Channels), cfg.Switching.ZipfS)
		chain, err := markov.StickyWeighted(weights, cfg.Switching.SwitchProb)
		if err != nil {
			c.backend.close()
			return nil, fmt.Errorf("cluster: switching chain: %w", err)
		}
		c.switchChain = chain
	}

	// Flash schedule, ordered by stage.
	c.flash = append([]FlashCrowd(nil), cfg.Flash...)
	sort.SliceStable(c.flash, func(a, b int) bool { return c.flash[a].Stage < c.flash[b].Stage })
	for _, f := range c.flash {
		if f.Stage < 0 || f.Peers < 0 || f.Channel < 0 || f.Channel >= len(c.channels) {
			c.backend.close()
			return nil, fmt.Errorf("cluster: flash crowd %+v invalid", f)
		}
	}
	return c, nil
}

// zipfWeights returns the popularity weights rank^-s in channel order.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
	}
	return w
}

// NumChannels returns the channel count.
func (c *Cluster) NumChannels() int { return len(c.channels) }

// NumHelpers returns the global pool size.
func (c *Cluster) NumHelpers() int { return len(c.helpers) }

// ActivePeers returns the total audience size.
func (c *Cluster) ActivePeers() int { return len(c.viewerIDs) }

// ChannelAudience returns the number of viewers watching channel ci.
func (c *Cluster) ChannelAudience(ci int) int { return len(c.channels[ci].peerIDs) }

// ChannelPool returns the number of helpers currently assigned to channel ci.
func (c *Cluster) ChannelPool(ci int) int { return len(c.channels[ci].helperIDs) }

// ChannelName returns channel ci's configured name.
func (c *Cluster) ChannelName(ci int) string { return c.channels[ci].name }

// ChannelPeerIDs returns the global viewer ids watching channel ci,
// parallel to the channel's local peer indices. The slice aliases director
// state that membership operations rewrite — clone to retain.
func (c *Cluster) ChannelPeerIDs(ci int) []int { return c.channels[ci].peerIDs }

// ChannelStageResult returns channel ci's most recent per-stage view (the
// per-peer actions and rates behind the StageTotals aggregates). The
// slices alias backend buffers overwritten by the next stage — call
// core.StageResult.Clone to retain one.
func (c *Cluster) ChannelStageResult(ci int) core.StageResult {
	return c.backend.lastResult(ci)
}

// Stage returns the number of completed stages.
func (c *Cluster) Stage() int { return c.stage }

// Epoch returns the number of completed epochs.
func (c *Cluster) Epoch() int { return c.epoch }

// Assignment returns a copy of the current helper→channel assignment.
func (c *Cluster) Assignment() alloc.Assignment {
	return append(alloc.Assignment(nil), c.assign...)
}

// Close ends the cluster's distsim runtime, so later stages fail.
func (c *Cluster) Close() error { return c.backend.close() }

// MaxDeficit evaluates the current assignment against the channels'
// current demands (audience × bitrate) and expected helper capacities.
func (c *Cluster) MaxDeficit() (float64, error) {
	c.refreshDemands()
	return alloc.MaxDeficit(c.demands, c.expCaps, c.assign)
}

// refreshDemands rewrites the demand scratch from current audiences.
func (c *Cluster) refreshDemands() {
	for ci, st := range c.channels {
		c.demands[ci] = alloc.Channel{Name: st.name, Demand: float64(len(st.peerIDs)) * st.bitrate}
	}
}

// propose computes the allocator's assignment for the current demand
// scratch. Every channel ends up with at least one helper: the greedy path
// is coverage-aware by construction (alloc.GreedyMinOne), the proportional
// path is repaired for zero-demand channels.
func (c *Cluster) propose() (alloc.Assignment, error) {
	switch c.allocator {
	case AllocProportional:
		counts, err := alloc.Proportional(c.demands, len(c.helpers))
		if err != nil {
			return nil, err
		}
		a := assignmentFromCounts(counts)
		c.repairMinOne(a)
		return a, nil
	default: // AllocGreedy, and the initial assignment for AllocStatic
		return alloc.GreedyMinOne(c.demands, c.expCaps)
	}
}

// assignmentFromCounts deals helpers in index order: the first counts[0]
// helpers go to channel 0, the next counts[1] to channel 1, and so on.
func assignmentFromCounts(counts []int) alloc.Assignment {
	var a alloc.Assignment
	for ci, n := range counts {
		for k := 0; k < n; k++ {
			a = append(a, ci)
		}
	}
	return a
}

// repairMinOne rebalances the assignment in place so every channel holds at
// least one helper (possible because New requires H >= C): each starved
// channel takes the lowest-expected-capacity helper from the channel with
// the most helpers (ties: lowest channel index, then highest helper id).
func (c *Cluster) repairMinOne(a alloc.Assignment) {
	// Sized from the demand scratch, not c.channels: the initial proposal
	// runs before the channel states exist.
	counts := make([]int, len(c.demands))
	for _, ci := range a {
		counts[ci]++
	}
	for ci := range c.demands {
		if counts[ci] > 0 {
			continue
		}
		donor := 0
		for d := 1; d < len(counts); d++ {
			if counts[d] > counts[donor] {
				donor = d
			}
		}
		pick := -1
		for h, target := range a {
			if target != donor {
				continue
			}
			if pick < 0 || c.helpers[h].expCap <= c.helpers[pick].expCap {
				pick = h
			}
		}
		a[pick] = ci
		counts[donor]--
		counts[ci]++
	}
}

// Run advances the cluster `epochs` epochs, invoking observe (if non-nil)
// after each boundary.
func (c *Cluster) Run(epochs int, observe func(EpochMetrics)) error {
	if epochs < 0 {
		return fmt.Errorf("cluster: Run with %d epochs", epochs)
	}
	for e := 0; e < epochs; e++ {
		m, err := c.RunEpoch()
		if err != nil {
			return err
		}
		if observe != nil {
			observe(m)
		}
	}
	return nil
}

// RunEpoch advances EpochStages stages, then runs the re-allocation
// boundary and returns the epoch's metrics.
func (c *Cluster) RunEpoch() (EpochMetrics, error) {
	for s := 0; s < c.epochStages; s++ {
		if err := c.step(); err != nil {
			return EpochMetrics{}, err
		}
	}
	return c.boundary()
}

// step advances every channel one stage: scenario events first (flash
// crowds, Markov switching — sequential, deterministic order), then the
// backend's channel-stepping phase.
func (c *Cluster) step() error {
	c.traceFaultWindows()
	for c.flashIdx < len(c.flash) && c.flash[c.flashIdx].Stage == c.stage {
		f := c.flash[c.flashIdx]
		for k := 0; k < f.Peers; k++ {
			if err := c.join(f.Channel); err != nil {
				return err
			}
		}
		c.flashIdx++
	}
	if c.switchChain != nil {
		// Iterate in ascending global id so the shared viewer RNG stream is
		// consumed in a reproducible order.
		for k, cur := range c.viewerCh {
			next := c.switchChain.Step(c.viewerRng, cur)
			if next == cur {
				continue
			}
			if err := c.move(k, next); err != nil {
				return err
			}
			c.switches++
		}
	}
	var t0 int64
	if c.tel.enabled {
		t0 = c.tel.clock()
	}
	if err := c.backend.step(c.scratch); err != nil {
		return err
	}
	if c.tel.enabled {
		c.tel.stageSeconds.Observe(float64(c.tel.clock()-t0) / 1e9)
		c.tel.observeStage(c.scratch, len(c.viewerIDs))
		if p, tax, ok := c.backend.roundProfile(); ok {
			c.tel.observeProfile(p, tax)
		}
	}
	c.traceViewRefreshes()
	for ci := range c.scratch {
		c.acc[ci].accumulate(c.scratch[ci])
	}
	if c.detector != nil {
		if err := c.detectorPass(); err != nil {
			return err
		}
	}
	c.emitSeries()
	c.stage++
	c.stagesInEpoch++
	return nil
}

// emitSeries writes the periodic per-entity trace samples: one series
// event per channel series then per helper series, in ascending entity
// order. Every value is a function of deterministic simulation state
// (audience sizes, epoch-to-date welfare, assignment, detector state),
// so series records never break trace byte-identity.
func (c *Cluster) emitSeries() {
	if c.trace == nil || c.seriesEvery <= 0 || (c.stage+1)%c.seriesEvery != 0 {
		return
	}
	emit := func(ci, h int, detail string, v float64) {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindSeries)
		e.Channel = ci
		e.Helper = h
		e.Detail = detail
		c.trace.Emit(e.WithValue(v))
	}
	for ci := range c.channels {
		ch := c.channels[ci]
		a := &c.acc[ci]
		ratio, cont := 1.0, 1.0
		if a.opt > 0 {
			ratio = a.welfare / a.opt
		}
		if a.played+a.stalled > 0 {
			cont = float64(a.played) / float64(a.played+a.stalled)
		}
		emit(ci, -1, "active_peers", float64(len(ch.peerIDs)))
		emit(ci, -1, "pool_helpers", float64(len(ch.helperIDs)))
		emit(ci, -1, "welfare_ratio", ratio)
		emit(ci, -1, "continuity", cont)
	}
	for h := range c.helpers {
		emit(-1, h, "assign", float64(c.assign[h]))
		down := 0.0
		if len(c.evicted) > 0 && c.evicted[h] {
			down = 1
		}
		emit(-1, h, "down", down)
	}
}

// StageTotals is the aggregate-only view of one stage: channel-order sums
// of the per-channel observables. StepStage fills one without allocating,
// which is what long replays over many channels want.
type StageTotals struct {
	Welfare    float64
	OptWelfare float64
	ServerLoad float64
	MinDeficit float64
	// Played and Stalled count playout-buffer ticks across all viewers.
	Played  int
	Stalled int
	// ActivePeers is the audience size after the stage.
	ActivePeers int
}

// WelfareRatio is Welfare/OptWelfare with the degenerate stage defined:
// a stage whose optimum is zero (no viewers, or every helper observed at
// zero capacity — e.g. a fully partitioned distsim link) reports 1, never
// NaN, matching EpochMetrics.WelfareRatio's contract so downstream JSON
// encoders and dashboards are safe on pathological stages.
func (t StageTotals) WelfareRatio() float64 {
	if t.OptWelfare > 0 {
		return t.Welfare / t.OptWelfare
	}
	return 1
}

// StepStage advances every channel one stage — scenario events (flash
// crowds, Markov switching) first, then the backend's channel-stepping
// phase — and returns the stage's aggregate totals, reduced in channel
// order. It is the per-stage face of the engine (RunEpoch drives the same
// loop); epoch boundaries do not run here, so callers composing replay
// with re-allocation should use Replay/RunEpoch instead.
func (c *Cluster) StepStage() (StageTotals, error) {
	if err := c.step(); err != nil {
		return StageTotals{}, err
	}
	t := StageTotals{ActivePeers: len(c.viewerIDs)}
	for ci := range c.scratch {
		s := &c.scratch[ci]
		t.Welfare += s.welfare
		t.OptWelfare += s.opt
		t.ServerLoad += s.serverLoad
		t.MinDeficit += s.minDeficit
		t.Played += s.played
		t.Stalled += s.stalled
	}
	return t, nil
}

// boundary reduces the epoch metrics in channel order, runs the
// re-allocation, and resets the accumulators.
func (c *Cluster) boundary() (EpochMetrics, error) {
	var welfare, opt, serverLoad, minDeficit float64
	var played, stalled, lateServed, faultMsgs int
	for ci := range c.acc {
		a := &c.acc[ci]
		welfare += a.welfare
		opt += a.opt
		serverLoad += a.serverLoad
		minDeficit += a.minDeficit
		played += a.played
		stalled += a.stalled
		lateServed += a.lateServed
		faultMsgs += a.faultMsgs
		if c.tel.enabled {
			c.tel.observeChannelEpoch(ci, *a, len(c.channels[ci].peerIDs))
		}
		*a = stageData{}
	}
	moves, err := c.reallocate()
	if err != nil {
		return EpochMetrics{}, err
	}
	// Fault-honest MaxDeficit: a helper the plan makes unreachable right
	// now contributes no capacity, whether or not a detector noticed —
	// so a detector-disabled baseline cannot report phantom supply.
	caps := c.expCaps
	if c.faults != nil {
		if c.effCaps == nil {
			c.effCaps = make([]float64, len(c.expCaps))
		}
		copy(c.effCaps, c.expCaps)
		for h := range c.effCaps {
			if c.faults.Unreachable(h, c.assign[h], c.stage) {
				c.effCaps[h] = 0
			}
		}
		caps = c.effCaps
	}
	maxDef, err := alloc.MaxDeficit(c.demands, caps, c.assign)
	if err != nil {
		return EpochMetrics{}, fmt.Errorf("cluster: epoch deficit: %w", err)
	}
	if c.tel.enabled {
		c.observeEntityGauges(caps)
	}
	down := 0
	for _, ev := range c.evicted {
		if ev {
			down++
		}
	}
	n := c.stagesInEpoch
	m := EpochMetrics{
		Epoch:        c.epoch,
		Stages:       n,
		ActivePeers:  len(c.viewerIDs),
		WelfareRatio: 1,
		Continuity:   1,
		MaxDeficit:   maxDef,
		Moves:        moves,
		Switches:     c.switches,
		Joins:        c.joins,
		Leaves:       c.leaves,
		LateServed:   lateServed,
		FaultMsgs:    faultMsgs,
		Suspected:    c.suspectedE,
		Evicted:      c.evictedE,
		Readmitted:   c.readmittedE,
		HelpersDown:  down,
	}
	if n > 0 {
		m.MeanServerLoad = serverLoad / float64(n)
		m.MeanMinDeficit = minDeficit / float64(n)
	}
	if opt > 0 {
		m.WelfareRatio = welfare / opt
	}
	if played+stalled > 0 {
		m.Continuity = float64(played) / float64(played+stalled)
	}
	if c.recoverN > 0 {
		m.MeanTimeToRecover = c.recoverSum / float64(c.recoverN)
	}
	if c.tel.enabled {
		c.tel.observeBoundary(m)
	}
	if c.trace != nil {
		c.trace.Emit(telemetry.Ev(c.stage, m.Epoch, telemetry.KindEpoch).WithValue(m.WelfareRatio))
	}
	c.switches, c.joins, c.leaves = 0, 0, 0
	c.suspectedE, c.evictedE, c.readmittedE = 0, 0, 0
	c.recoverSum, c.recoverN = 0, 0
	c.stagesInEpoch = 0
	c.epoch++
	return m, nil
}

// reallocate measures current demands, asks the allocator for a proposal,
// and migrates helpers if the proposal beats the current assignment's
// maximum deficit by more than the hysteresis. Returns the number of
// helpers moved.
func (c *Cluster) reallocate() (int, error) {
	c.refreshDemands()
	if c.allocator == AllocStatic {
		return 0, nil
	}
	proposal, err := c.propose()
	if err != nil {
		return 0, fmt.Errorf("cluster: reallocation: %w", err)
	}
	// Evicted helpers are pinned where they are: they have no pool
	// presence to migrate (the readmission path returns them to their
	// recorded channel), and their expected capacity is already zero so
	// the pin costs the proposal nothing.
	pinned := false
	for h, ev := range c.evicted {
		if ev && proposal[h] != c.assign[h] {
			proposal[h] = c.assign[h]
			pinned = true
		}
	}
	if pinned && !c.coversAllChannels(proposal) {
		return 0, nil
	}
	curDef, err := alloc.MaxDeficit(c.demands, c.expCaps, c.assign)
	if err != nil {
		return 0, err
	}
	newDef, err := alloc.MaxDeficit(c.demands, c.expCaps, proposal)
	if err != nil {
		return 0, err
	}
	if newDef >= curDef-c.hysteresis {
		return 0, nil
	}
	c.stabilize(proposal)
	return c.migrate(proposal)
}

// coversAllChannels reports whether every channel holds at least one
// live (non-evicted) helper under the assignment — the guard that keeps
// detector pinning from starving a channel the allocator had covered
// only with an evicted helper.
func (c *Cluster) coversAllChannels(a alloc.Assignment) bool {
	covered := make([]bool, len(c.channels))
	for h, ci := range a {
		if !c.evicted[h] {
			covered[ci] = true
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	return true
}

// stabilize relabels the proposal in place to minimize physical moves:
// helpers with equal expected capacity are interchangeable for the deficit
// objective, so within each capacity class every helper that can keep its
// current channel does, and only the class's net flow migrates. Iteration
// is in (capacity, id) order, so the result is deterministic.
func (c *Cluster) stabilize(next alloc.Assignment) {
	// Evicted helpers are pinned (next[h] == c.assign[h]) and absent from
	// every pool; relabeling within their capacity class could displace
	// the pin, so they are excluded outright.
	ids := make([]int, 0, len(c.helpers))
	for h := range c.helpers {
		if len(c.evicted) == 0 || !c.evicted[h] {
			ids = append(ids, h)
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return c.helpers[ids[a]].expCap > c.helpers[ids[b]].expCap
	})
	need := make([]int, len(c.channels))
	for lo := 0; lo < len(ids); {
		hi := lo
		for hi < len(ids) && c.helpers[ids[hi]].expCap == c.helpers[ids[lo]].expCap {
			hi++
		}
		class := ids[lo:hi]
		// The class's proposed per-channel counts.
		for ci := range need {
			need[ci] = 0
		}
		for _, h := range class {
			need[next[h]]++
		}
		// Helpers whose current channel still wants one from this class stay.
		pending := class[:0:0]
		for _, h := range class {
			if cur := c.assign[h]; need[cur] > 0 {
				need[cur]--
				next[h] = cur
			} else {
				pending = append(pending, h)
			}
		}
		// The rest take the remaining demand in channel-index order.
		ci := 0
		for _, h := range pending {
			for need[ci] == 0 {
				ci++
			}
			need[ci]--
			next[h] = ci
		}
		lo = hi
	}
}

// migrate applies the new assignment: additions first so no channel is
// ever left empty, then removals. Helpers restart their bandwidth chain on
// arrival (the gaining channel draws a fresh initial state from its own
// stream) — migration is a physical re-deployment, not a live hand-off.
func (c *Cluster) migrate(next alloc.Assignment) (int, error) {
	moves := 0
	for h, target := range next {
		if c.assign[h] == target {
			continue
		}
		dst := c.channels[target]
		if err := c.backend.addHelper(target, h, c.helpers[h].spec); err != nil {
			return moves, fmt.Errorf("cluster: migrate helper %d to %q: %w", h, dst.name, err)
		}
		dst.helperIDs = append(dst.helperIDs, h)
		moves++
		if c.trace != nil {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindMigrate)
			e.Helper = h
			e.Channel = c.assign[h]
			e.To = target
			c.trace.Emit(e)
		}
	}
	for h, target := range next {
		if c.assign[h] == target {
			continue
		}
		src := c.channels[c.assign[h]]
		local := -1
		for j, id := range src.helperIDs {
			if id == h {
				local = j
				break
			}
		}
		if local < 0 {
			return moves, fmt.Errorf("cluster: helper %d missing from channel %q", h, src.name)
		}
		if err := c.backend.removeHelper(c.assign[h], local, h); err != nil {
			return moves, fmt.Errorf("cluster: migrate helper %d from %q: %w", h, src.name, err)
		}
		src.helperIDs = append(src.helperIDs[:local], src.helperIDs[local+1:]...)
	}
	c.assign = next
	return moves, nil
}

// join adds a fresh viewer to channel ci — the flash-crowd path. It
// allocates the lowest free global id: first from the min-heap of ids
// freed by Leave (lazy deletion skips entries a replayed workload has
// since claimed), then from the monotone nextID watermark, skipping ids a
// replayed workload occupies. Under sustained leave/re-join churn the
// scenario id space therefore stays dense, each join costing O(log n)
// heap work instead of an O(N) rescan (replays should still offset their
// ids above the initial audience plus expected scenario churn, see
// trace.Workload.OffsetPeerIDs).
func (c *Cluster) join(ci int) error {
	for len(c.freeIDs) > 0 {
		id := popMinID(&c.freeIDs)
		if _, taken := c.viewer(id); !taken {
			return c.Join(id, ci)
		}
	}
	for {
		if _, taken := c.viewer(c.nextID); !taken {
			break
		}
		c.nextID++
	}
	id := c.nextID
	c.nextID++
	return c.Join(id, ci)
}

// pushFreeID records a departed viewer's id for scenario-join recycling.
// Only ids below the nextID watermark enter the heap: anything at or
// above it belongs to an external (replayed) id space that manages its
// own ids.
func (c *Cluster) pushFreeID(id int) {
	if id >= c.nextID {
		return
	}
	c.freeIDs = append(c.freeIDs, id)
	// Sift up.
	i := len(c.freeIDs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.freeIDs[parent] <= c.freeIDs[i] {
			break
		}
		c.freeIDs[parent], c.freeIDs[i] = c.freeIDs[i], c.freeIDs[parent]
		i = parent
	}
}

// popMinID removes and returns the smallest id of the free-id min-heap.
func popMinID(h *[]int) int {
	ids := *h
	min := ids[0]
	last := len(ids) - 1
	ids[0] = ids[last]
	ids = ids[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(ids) && ids[l] < ids[smallest] {
			smallest = l
		}
		if r < len(ids) && ids[r] < ids[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		ids[i], ids[smallest] = ids[smallest], ids[i]
		i = smallest
	}
	*h = ids
	return min
}

// Join adds the (new) global viewer id to channel ci with the channel
// bitrate as demand, a factory-built selection policy, and an empty playout
// buffer. Ids need not be contiguous: replayed workloads bring their own id
// space (see trace.Workload.OffsetPeerIDs), while scenario joins (flash
// crowds) allocate low ids of their own.
func (c *Cluster) Join(peerID, ci int) error {
	k, exists := c.viewer(peerID)
	if exists {
		return fmt.Errorf("cluster: viewer %d already active", peerID)
	}
	if ci < 0 || ci >= len(c.channels) {
		return fmt.Errorf("cluster: channel %d out of range", ci)
	}
	st := c.channels[ci]
	if err := c.backend.addPeer(ci); err != nil {
		return fmt.Errorf("cluster: join channel %q: %w", st.name, err)
	}
	st.peerIDs = append(st.peerIDs, peerID)
	c.insertViewer(k, peerID, ci)
	c.joins++
	if c.trace != nil {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindJoin)
		e.Peer = peerID
		e.Channel = ci
		c.trace.Emit(e)
	}
	return nil
}

// Leave removes the global viewer from the system.
func (c *Cluster) Leave(peerID int) error {
	k, ok := c.viewer(peerID)
	if !ok {
		return fmt.Errorf("cluster: viewer %d not active", peerID)
	}
	ci := c.viewerCh[k]
	if err := c.dropPeer(ci, peerID); err != nil {
		return err
	}
	c.viewerIDs = slices.Delete(c.viewerIDs, k, k+1)
	c.viewerCh = slices.Delete(c.viewerCh, k, k+1)
	c.pushFreeID(peerID)
	c.leaves++
	if c.trace != nil {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindLeave)
		e.Peer = peerID
		e.Channel = ci
		c.trace.Emit(e)
	}
	return nil
}

// Switch moves the viewer to another channel (fresh selection state and
// buffer, since both the helper pool and the bitrate change). The target
// channel is validated *before* the viewer leaves its current one, so a
// failed switch leaves membership untouched instead of dropping the viewer.
func (c *Cluster) Switch(peerID, toChannel int) error {
	k, ok := c.viewer(peerID)
	if !ok {
		return fmt.Errorf("cluster: viewer %d not active", peerID)
	}
	if toChannel < 0 || toChannel >= len(c.channels) {
		return fmt.Errorf("cluster: channel %d out of range", toChannel)
	}
	if c.viewerCh[k] == toChannel {
		return nil
	}
	if err := c.move(k, toChannel); err != nil {
		return err
	}
	c.switches++
	return nil
}

// Apply replays one churn event through the global-id operations.
func (c *Cluster) Apply(e trace.Event) error {
	switch e.Kind {
	case trace.Join:
		return c.Join(e.PeerID, e.Channel)
	case trace.Leave:
		return c.Leave(e.PeerID)
	case trace.Switch:
		return c.Switch(e.PeerID, e.Channel)
	default:
		return fmt.Errorf("cluster: unknown event kind %v", e.Kind)
	}
}

// Replay runs the workload to the horizon on the epoch loop: each stage's
// events are applied (in trace order) before the stage steps, and every
// EpochStages stages the re-allocation boundary fires and its metrics are
// observed. A trailing partial epoch is flushed with Stages set to its
// actual length. Events beyond the horizon are dropped (the
// trace.Workload.PerStage contract), so a short replay simply truncates
// the workload. Metrics are bit-identical at any fork width.
func (c *Cluster) Replay(w *trace.Workload, horizon int, observe func(EpochMetrics)) error {
	perStage := w.PerStage(horizon)
	for s := 0; s < horizon; s++ {
		for _, e := range perStage[s] {
			if err := c.Apply(e); err != nil {
				return fmt.Errorf("cluster: stage %d event %+v: %w", s, e, err)
			}
		}
		if err := c.step(); err != nil {
			return err
		}
		if c.stagesInEpoch >= c.epochStages {
			m, err := c.boundary()
			if err != nil {
				return err
			}
			if observe != nil {
				observe(m)
			}
		}
	}
	if c.stagesInEpoch > 0 {
		m, err := c.boundary()
		if err != nil {
			return err
		}
		if observe != nil {
			observe(m)
		}
	}
	return nil
}

// ReplayTotals is Replay on the aggregate-only, per-stage path: each
// stage's events are applied before the stage steps and the stage's
// channel-order totals are observed. Re-allocation boundaries still fire
// every EpochStages stages (their per-epoch metrics are simply not
// observed), so the totals series reflects the same helper assignments the
// epoch loop would produce.
func (c *Cluster) ReplayTotals(w *trace.Workload, horizon int, observe func(StageTotals)) error {
	perStage := w.PerStage(horizon)
	for s := 0; s < horizon; s++ {
		for _, e := range perStage[s] {
			if err := c.Apply(e); err != nil {
				return fmt.Errorf("cluster: stage %d event %+v: %w", s, e, err)
			}
		}
		t, err := c.StepStage()
		if err != nil {
			return err
		}
		if observe != nil {
			observe(t)
		}
		if c.stagesInEpoch >= c.epochStages {
			if _, err := c.boundary(); err != nil {
				return err
			}
		}
	}
	return nil
}

// viewer returns the position of viewer id in the ascending index, and
// whether it is active; an inactive id's position is where it would go.
func (c *Cluster) viewer(id int) (k int, ok bool) {
	return slices.BinarySearch(c.viewerIDs, id)
}

// insertViewer adds viewer id, watching channel ci, at position k of the
// ascending index. Ids usually arrive in increasing order, so the common
// case is an append.
func (c *Cluster) insertViewer(k, id, ci int) {
	c.viewerIDs = slices.Insert(c.viewerIDs, k, id)
	c.viewerCh = slices.Insert(c.viewerCh, k, ci)
}

// dropPeer removes viewer id from channel ci, the channel the index gives
// it, whose peerIDs hold it at the local index the backend addresses.
func (c *Cluster) dropPeer(ci, id int) error {
	src := c.channels[ci]
	local := slices.Index(src.peerIDs, id)
	if err := c.backend.removePeer(ci, local); err != nil {
		return fmt.Errorf("cluster: leave channel %q: %w", src.name, err)
	}
	src.peerIDs = slices.Delete(src.peerIDs, local, local+1)
	return nil
}

// move switches the viewer at position k of the index to channel `to`:
// selection state and buffer are fresh on arrival, since both the helper
// pool and the bitrate change.
func (c *Cluster) move(k, to int) error {
	id, from := c.viewerIDs[k], c.viewerCh[k]
	if err := c.dropPeer(from, id); err != nil {
		return err
	}
	dst := c.channels[to]
	if err := c.backend.addPeer(to); err != nil {
		return fmt.Errorf("cluster: join channel %q: %w", dst.name, err)
	}
	dst.peerIDs = append(dst.peerIDs, id)
	c.viewerCh[k] = to
	if c.trace != nil {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindSwitch)
		e.Peer = id
		e.Channel = from
		e.To = to
		c.trace.Emit(e)
	}
	return nil
}
