// Package distsim is the batched message-passing runtime: it runs a full
// multi-channel helper-selection deployment — many channels, one shared
// helper pool, helper re-allocation epochs — as communicating nodes, while
// keeping the per-round message count at O(helpers + channels) instead of
// the O(peers) a goroutine-per-peer runtime pays.
//
// # Node roles
//
// Nodes are stepped state machines, not goroutines. Results cannot depend
// on scheduling, so a goroutine per node would buy nothing that shows in
// them; the protocol's messages are counted, not sent.
//
//   - A channel-manager node per channel hosts the channel's peers: their
//     selection policies, playout buffers, and the channel's private
//     random stream. Peers are simulated in the manager because a
//     per-peer node buys no fidelity — the paper's zero-knowledge property
//     is enforced by the bandit feedback each policy receives, not by a
//     process boundary.
//   - A helper node per pool helper keeps only what survives a change of
//     owner: its id, the link model and its private link stream. Its
//     Markov bandwidth process lives in the owning channel's system, which
//     builds a fresh one when the helper migrates in — exactly as the
//     shared-memory engine's AddHelper does.
//   - The coordinator (the caller, driving StepRound) steps the managers
//     and aggregates their reports. Membership and migration calls queue
//     ops that each manager applies at the start of the next round in call
//     order. A helper's owner is whichever pool holds it once a round's
//     ops have been applied, so an ownership hand-off is a pool edit, and
//     a helper must sit in exactly one pool after every round's ops.
//
// # Round protocol
//
// Rounds are synchronous, matching the repeated-game model. For a round,
// each manager:
//
//  1. applies its queued ops (joins, departures, helper migrations) — the
//     coordinator's tick, one message per channel;
//  2. runs the selection pass over its peers and attaches them to its pool
//     helpers, one attach batch per pool helper;
//  3. serves its pool inline, in pool order: each helper node steps its
//     bandwidth process once, reads its capacity, and replies — one reply
//     per pool helper;
//  4. realizes rates (C_j/load_j via core.FinishStage — the exact
//     arithmetic of the shared-memory engine), feeds its learners, ticks
//     playout buffers, and reports the channel's aggregates — one report
//     per channel.
//
// A quiet round therefore costs each channel 2 + 2·pool messages, plus
// one per helper it gains. Channels share no state within a round, so the
// coordinator steps the managers on the fork-join executor when the host
// has several cores and the round is big enough, and inline otherwise.
//
// # Latency, drops, and faults
//
// A LinkModel (nil = perfect links) adjudicates every data-plane message.
// A dropped attach batch means the helper never hears from its peers that
// round; a dropped reply means the serve cycle failed after attach. In
// both cases the affected peers realize rate zero — feedback their
// policies genuinely learn from — and the helper's capacity reads as zero
// in that round's observed metrics. A delayed message misses the round
// deadline, which under the synchronous protocol is by default equivalent
// to a drop for service; it is separately counted. With
// FaultPlan.Queueing a late attach batch is instead buffered at the
// helper and served one round deferred — delay becomes degraded service
// (a playout-buffer stall risk), not loss. A FaultPlan additionally
// schedules deterministic fail-stop helper crashes and regional
// partitions over fault domains; plan verdicts are applied after the
// link draw is consumed, so faulty runs replay the exact random streams
// of fault-free ones. With a nil LinkModel and nil FaultPlan the runtime
// consumes no extra randomness and reproduces the shared-memory cluster
// engine bit-identically (see internal/cluster's distsim backend).
package distsim

import (
	"errors"
	"fmt"
	"slices"

	"rths/internal/core"
	"rths/internal/forkjoin"
	"rths/internal/markov"
	"rths/internal/streaming"
	"rths/internal/telemetry"
	"rths/internal/xrand"
)

// ChannelConfig describes one channel deployment.
type ChannelConfig struct {
	// Name identifies the channel in stats.
	Name string
	// Seed drives the channel's private randomness (selection, helper
	// chain construction).
	Seed uint64
	// InitialPeers seeds the audience (>= 0).
	InitialPeers int
	// DemandPerPeer is each viewer's streaming demand in kbps (0 disables
	// demand tracking). Mid-run joiners inherit it.
	DemandPerPeer float64
	// StartupStages > 0 attaches a playout buffer to every viewer with the
	// given startup threshold (stages of media).
	StartupStages float64
}

// Config assembles a distributed deployment.
type Config struct {
	// Channels lists the channel deployments; len >= 1.
	Channels []ChannelConfig
	// Helpers is the shared global pool; len >= 1.
	Helpers []core.HelperSpec
	// Assign maps each helper to its initial channel; len(Assign) ==
	// len(Helpers), and every channel must hold at least one helper.
	Assign []int
	// Factory builds peer policies (nil = RTHS learner defaults).
	Factory core.SelectorFactory
	// UtilityScale overrides the per-channel utility normalization (0 lets
	// each channel use its own pool maximum). Multi-channel deployments
	// with helper migration must set one shared scale.
	UtilityScale float64
	// ViewSize bounds each peer's helper candidate view (see
	// core.Config.ViewSize); 0 keeps full views. Applied per channel
	// against the channel's own pool size, exactly as the shared-memory
	// cluster backend does, so the two backends stay bit-identical.
	ViewSize int
	// ViewRefresh is the partial-view refresh period in stages (see
	// core.Config.ViewRefresh; 0 = default, negative disables).
	ViewRefresh int
	// Link adjudicates every data-plane message (nil = perfect links:
	// no drops, no delay, no extra randomness consumed).
	Link LinkModel
	// LinkSeed derives the link model's random streams.
	LinkSeed uint64
	// Faults is the deterministic fault schedule (nil = no scheduled
	// faults): fail-stop helper crashes, regional partitions over fault
	// domains, and the queueing-semantics switch for late batches. The
	// plan consumes no randomness and composes with Link: link draws are
	// consumed identically with and without a plan, so adding faults
	// never perturbs the surviving traffic's randomness.
	Faults *FaultPlan
	// BatchSizes is an optional size histogram for attach-batch sizes
	// (peers per batch). Each manager fills a private same-bucket twin
	// (managers may step concurrently) and the coordinator merges the
	// twins in channel order once the round has joined, so the merged
	// counts are deterministic. Nil disables the instrument.
	BatchSizes *telemetry.Histogram
	// Spans, when set, enables round-span profiling: each manager stamps
	// its processing window (monotonic nanoseconds) on its ChannelRound,
	// and the coordinator records one RoundSpan per channel per round
	// into the ring and derives critical-path attribution
	// (RoundStats.Profile). Spans are measurement only — wall-clock
	// values never reach deterministic outputs.
	Spans *telemetry.Recorder
	// SpanClock overrides the monotonic clock used for span timestamps
	// (nil = telemetry.MonotonicNow) — the seam tests use to feed
	// synthetic, deterministic span durations. Managers may step
	// concurrently, so it must be safe for concurrent use. Setting
	// SpanClock alone (Spans nil) still enables profiling.
	SpanClock func() int64
}

// ChannelRound is one channel's view of a completed round. Slices alias
// manager-owned buffers that the next StepRound overwrites.
type ChannelRound struct {
	// Name is the channel's configured name.
	Name string
	// Welfare, OptWelfare, ServerLoad and MinDeficit are the channel's
	// core.StageResult aggregates for the round.
	Welfare    float64
	OptWelfare float64
	ServerLoad float64
	MinDeficit float64
	// Played and Stalled count playout-buffer ticks this round (0 when
	// buffers are disabled).
	Played  int
	Stalled int
	// Unserved counts peers that realized zero rate because a link failed.
	Unserved int
	// LostMsgs counts data-plane messages dropped outright this round.
	LostMsgs int
	// LateMsgs counts data-plane messages that missed the round deadline
	// (delayed past it) this round — as good as lost for service under
	// loss semantics, buffered and served next round under
	// FaultPlan.Queueing — accounted separately either way.
	LateMsgs int
	// LateServed counts helpers whose late attach batch was served under
	// queueing semantics this round (each covers loads[j] peers whose
	// media arrives one round deferred).
	LateServed int
	// FaultMsgs counts helper exchanges suppressed by the fault plan
	// this round (crashed helper or severed partition — one per
	// unreachable pool helper).
	FaultMsgs int
	// Msgs counts the channel's protocol messages this round: its
	// coordinator tick and report, one attach batch and one capacity
	// reply per pool helper, and one ownership hand-off per helper
	// gained this round — 2 + 2·pool for a quiet round, so a whole
	// deployment costs 2H + 2C messages per round plus migrations. The
	// messages are counted, not sent: nodes are stepped inline.
	Msgs int
	// Batches counts attach batches sent this round (one per pool
	// helper — the whole round's peer→helper traffic).
	Batches int
	// ViewSwaps counts partial-view refresh swaps this round (see
	// core.StageResult.ViewSwaps).
	ViewSwaps int
	// Actions, Rates, Loads and Capacities are the channel's per-peer and
	// per-helper round views (local indices).
	Actions    []int
	Rates      []float64
	Loads      []int
	Capacities []float64
	// PoolIDs lists the channel's pool in local order as global helper
	// ids, and Missed marks the pool helpers whose exchange failed this
	// round (drop, fatal delay, crash, or partition) — the reply ledger a
	// failure detector consumes.
	PoolIDs []int
	Missed  []bool
	// StartNs and EndNs bound the manager's processing window for the
	// round (monotonic nanoseconds; 0 when profiling is disabled): from
	// when a lane starts the manager's ops to when its report is ready.
	// Time a manager waits for a free lane is outside the window. Like
	// WallNs they are measurement, never simulation state.
	StartNs int64
	EndNs   int64
}

// RoundStats is the coordinator's per-round aggregate, one entry per
// channel in channel order. It is reused across rounds: read it before the
// next StepRound call.
type RoundStats struct {
	Round    int
	Channels []ChannelRound
	// Msgs and Batches aggregate the per-channel protocol-message and
	// attach-batch counts across channels (deterministic integers).
	Msgs    int
	Batches int
	// WallNs is the coordinator-measured wall-clock duration of the
	// round in nanoseconds. It is a measurement, not simulation state:
	// it varies run to run and never feeds any deterministic output.
	WallNs int64
	// Profile is the round's critical-path attribution, derived from the
	// per-channel spans (nil when profiling is disabled). Reused across
	// rounds like the rest of the struct.
	Profile *RoundProfile
}

// RoundProfile attributes one round's wall time to its critical path.
// The round is synchronous, so in a deployment with one node per manager
// the slowest channel gates the fleet and every other manager idles at
// the round's join for the rest of the straggler's span. The profile
// measures that idle from the managers' own processing windows, which do
// not depend on how the simulation maps managers onto cores.
type RoundProfile struct {
	Round int
	// Straggler is the channel index with the longest span this round
	// (ties break to the lowest index).
	Straggler int
	// StragglerWallNs and MedianWallNs are the straggler's span and the
	// median span across channels.
	StragglerWallNs int64
	MedianWallNs    int64
	// LeadRatio is (straggler − median) / straggler in [0,1): how far
	// ahead of the typical channel the critical path ran.
	LeadRatio float64
	// IdleNs is Σ over channels of (straggler span − own span): the time
	// the managers would spend idle at the round's join. TotalNs is
	// channels × straggler span. IdleNs/TotalNs is the round's barrier
	// tax.
	IdleNs  int64
	TotalNs int64
}

// profileRound fills p from one round's span durations (wall[i] is
// channel i's span in nanoseconds). sort is scratch of the same length,
// overwritten. Pure function of its inputs — unit-testable on synthetic
// spans.
func profileRound(p *RoundProfile, round int, wall, scratch []int64) {
	p.Round = round
	p.Straggler = 0
	for i, w := range wall {
		if w > wall[p.Straggler] {
			p.Straggler = i
		}
	}
	max := wall[p.Straggler]
	copy(scratch, wall)
	slices.Sort(scratch)
	p.StragglerWallNs = max
	p.MedianWallNs = scratch[len(scratch)/2]
	p.LeadRatio = 0
	if max > 0 {
		p.LeadRatio = float64(max-p.MedianWallNs) / float64(max)
	}
	p.IdleNs, p.TotalNs = 0, 0
	for _, w := range wall {
		p.IdleNs += max - w
		p.TotalNs += max
	}
}

type opKind uint8

const (
	opAddPeer opKind = iota
	opRemovePeer
	opAddHelper
	opRemoveHelper
)

// op is one queued membership/migration operation, applied by the target
// manager at the start of the next round in enqueue order.
type op struct {
	kind   opKind
	local  int // RemovePeer / RemoveHelper local index
	helper int // global helper id (AddHelper / RemoveHelper)
	spec   core.HelperSpec
	node   *helperNode
}

// helperNode is one helper's node state: only what survives a change of
// owner. The owning manager serves it inline each round.
type helperNode struct {
	id      int
	link    LinkModel
	linkRng *xrand.Rand
}

// poolHelper is a manager's handle on one of its pool helpers: the node,
// plus the bandwidth process and levels the channel's own system built
// for it when the helper joined the pool.
type poolHelper struct {
	id     int
	node   *helperNode
	proc   *markov.Process
	levels []float64
}

// manager is one channel-manager node: it hosts the channel's peers
// (selection policies, buffers) and serves its pool helpers.
type manager struct {
	id      int
	name    string
	sys     *core.System
	factory core.SelectorFactory
	demand  float64
	startup float64
	bufs    []*streaming.Buffer
	pool    []poolHelper
	ops     []op // queued for the next round, in call order
	out     *ChannelRound

	link    LinkModel
	linkRng *xrand.Rand

	faults   *FaultPlan
	queueing bool

	caps []float64 // per-helper realized capacities
	ok   []bool    // per-helper link success this round

	down     []bool    // per-helper fault-plan verdict this round
	lateJ    []bool    // per-helper queued-late verdict this round
	poolIDs  []int     // per-helper global ids, rebuilt each round
	missed   []bool    // per-helper failed-exchange ledger, rebuilt each round
	deferred []float64 // per-peer rate buffered by queueing links (startup > 0 only)

	// sizes is the manager-local attach-batch size histogram, a same-
	// bucket twin of Config.BatchSizes that the coordinator merges and
	// resets between rounds (nil when the instrument is disabled).
	sizes *telemetry.Histogram

	// clock stamps the round-span window on m.out when profiling is
	// enabled (nil otherwise — spans stay zero).
	clock func() int64

	err error // sticky: a failed manager reports zeros from then on
}

// step runs the manager's whole round: its queued ops, then the protocol
// round. It touches only this channel's state and its pool's nodes, so
// managers step concurrently on the executor.
func (m *manager) step(round int) {
	// Full reset: a failed channel reports zeros, not its last good
	// round (struct assignment only rewrites headers — no allocation).
	*m.out = ChannelRound{Name: m.name}
	if m.clock != nil {
		m.out.StartNs = m.clock()
	}
	if m.err == nil {
		m.applyOps()
	}
	m.ops = m.ops[:0]
	if m.err == nil {
		m.stepRound(round)
	}
	if m.clock != nil {
		m.out.EndNs = m.clock()
	}
}

// applyOps applies the round's queued membership/migration operations in
// enqueue order, mirroring the shared-memory engine's call sequence.
func (m *manager) applyOps() {
	for _, o := range m.ops {
		switch o.kind {
		case opAddPeer:
			var sel core.Selector
			if m.factory != nil {
				s, err := m.factory(m.sys.NumPeers(), m.sys.NewPeerActions(), m.sys.UtilityScale())
				if err != nil {
					m.err = fmt.Errorf("distsim: channel %q join policy: %w", m.name, err)
					return
				}
				sel = s
			}
			if _, err := m.sys.AddPeer(sel, m.demand); err != nil {
				m.err = fmt.Errorf("distsim: channel %q join: %w", m.name, err)
				return
			}
			if m.startup > 0 {
				buf, err := streaming.NewBuffer(m.demand, m.startup)
				if err != nil {
					m.err = fmt.Errorf("distsim: channel %q buffer: %w", m.name, err)
					return
				}
				m.bufs = append(m.bufs, buf)
				m.deferred = append(m.deferred, 0)
			}
		case opRemovePeer:
			if err := m.sys.RemovePeer(o.local); err != nil {
				m.err = fmt.Errorf("distsim: channel %q leave: %w", m.name, err)
				return
			}
			if m.startup > 0 {
				m.bufs = append(m.bufs[:o.local], m.bufs[o.local+1:]...)
				m.deferred = append(m.deferred[:o.local], m.deferred[o.local+1:]...)
			}
		case opAddHelper:
			if err := m.sys.AddHelper(o.spec); err != nil {
				m.err = fmt.Errorf("distsim: channel %q gain helper %d: %w", m.name, o.helper, err)
				return
			}
			// Ownership hand-off: the node joins this pool with the fresh
			// process this channel's system just built (drawn from its
			// stream, exactly as the shared-memory engine's AddHelper does).
			local := m.sys.NumHelpers() - 1
			m.out.Msgs++ // ownership hand-off
			m.pool = append(m.pool, poolHelper{
				id:     o.helper,
				node:   o.node,
				proc:   m.sys.HelperProcess(local),
				levels: m.sys.HelperLevels(local),
			})
			m.caps = append(m.caps, 0)
			m.ok = append(m.ok, false)
			m.down = append(m.down, false)
			m.lateJ = append(m.lateJ, false)
			m.poolIDs = append(m.poolIDs, o.helper)
			m.missed = append(m.missed, false)
		case opRemoveHelper:
			// The global id must corroborate the local index: removing the
			// wrong pool slot would leave the named node in two pools at
			// once, served twice a round from one link stream. Fail the
			// channel instead.
			if o.local < 0 || o.local >= len(m.pool) || m.pool[o.local].id != o.helper {
				held := -1
				if o.local >= 0 && o.local < len(m.pool) {
					held = m.pool[o.local].id
				}
				m.err = fmt.Errorf("distsim: channel %q lose helper %d: local slot %d holds helper %d",
					m.name, o.helper, o.local, held)
				return
			}
			if err := m.sys.RemoveHelper(o.local); err != nil {
				m.err = fmt.Errorf("distsim: channel %q lose helper %d: %w", m.name, o.helper, err)
				return
			}
			// The node itself is untouched: its new owner's pool already
			// holds it (additions precede removals in a migration batch,
			// so no channel is ever left empty mid-flight).
			m.pool = append(m.pool[:o.local], m.pool[o.local+1:]...)
			m.caps = m.caps[:len(m.pool)]
			m.ok = m.ok[:len(m.pool)]
			m.down = m.down[:len(m.pool)]
			m.lateJ = m.lateJ[:len(m.pool)]
			m.poolIDs = m.poolIDs[:len(m.pool)]
			m.missed = m.missed[:len(m.pool)]
		}
	}
}

// stepRound runs one protocol round for this channel: select, attach,
// serve the pool, realize rates and feedback, tick buffers.
//
//rths:hotpath
func (m *manager) stepRound(round int) {
	actions, loads, err := m.sys.SelectStage()
	if err != nil {
		m.err = m.stageErr(err)
		return
	}
	for j := range m.pool {
		ph := &m.pool[j]
		// The fault plan adjudicates first (it is deterministic), but the
		// link draws are consumed unconditionally so a run with a plan sees
		// the exact random streams of the same run without one.
		down := m.faults != nil && m.faults.Unreachable(ph.id, m.id, round)
		m.down[j] = down
		failed, late := down, false
		if m.link != nil {
			// The attach batch, on the manager's stream.
			delay, drop := m.link.Deliver(m.linkRng, round)
			if !down {
				if drop {
					m.out.LostMsgs++
					failed = true
				} else if delay > 0 {
					m.out.LateMsgs++
					if m.queueing {
						// Queueing link: the batch reaches the helper a
						// round late and is served then — degraded, not
						// lost. The exchange still completes.
						late = true
					} else {
						failed = true
					}
				}
			}
		}
		// The helper node serves every attach, even one that never
		// reached it: the environment moves once per round regardless of
		// load or link fate, and the reply's link draw keeps the node's
		// stream aligned.
		ph.proc.Step()
		m.caps[j] = ph.levels[ph.proc.State()]
		if n := ph.node; n.link != nil {
			delay, drop := n.link.Deliver(n.linkRng, round)
			// An unreachable helper's reply never arrives, so its verdict
			// is moot — the exchange already failed.
			if !down && drop {
				m.out.LostMsgs++
				failed = true
			} else if !down && delay > 0 {
				m.out.LateMsgs++
				if m.queueing {
					late = true
				} else {
					failed = true
				}
			}
		}
		if down {
			m.out.FaultMsgs++
		}
		m.ok[j] = !failed
		m.lateJ[j] = late
	}
	// Round accounting: the channel's tick and report, plus one attach
	// and one reply per pool helper (hand-offs were counted as applied).
	m.out.Batches = len(m.pool)
	m.out.Msgs += 2 + 2*len(m.pool)
	if m.sizes != nil {
		for j := range m.pool {
			m.sizes.Observe(float64(loads[j]))
		}
	}
	for j, ok := range m.ok {
		m.poolIDs[j] = m.pool[j].id
		m.missed[j] = !ok
		if !ok {
			// Failed exchange: the helper contributes nothing observable
			// this round and its peers realize rate zero.
			m.caps[j] = 0
			m.lateJ[j] = false
			m.out.Unserved += loads[j]
		} else if m.lateJ[j] && loads[j] > 0 {
			m.out.LateServed++
		}
	}
	res, err := m.sys.FinishStage(m.caps)
	if err != nil {
		m.err = m.stageErr(err)
		return
	}
	for i, b := range m.bufs {
		// Queueing semantics: a peer attached through a late batch sees
		// its media one round deferred — this round's buffer tick gets
		// only previously deferred rate; this round's rate arrives next
		// tick. The learner feedback (res.Rates) is untouched: the
		// exchange completed and the capacity was genuinely realized.
		rate := res.Rates[i] + m.deferred[i]
		m.deferred[i] = 0
		if m.lateJ[actions[i]] {
			m.deferred[i] = res.Rates[i]
			rate -= res.Rates[i]
		}
		played, err := b.Tick(rate)
		if err != nil {
			m.err = m.bufferErr(err)
			return
		}
		if played {
			m.out.Played++
		} else {
			m.out.Stalled++
		}
	}
	m.out.ViewSwaps = res.ViewSwaps
	m.out.Welfare = res.Welfare
	m.out.OptWelfare = res.OptWelfare
	m.out.ServerLoad = res.ServerLoad
	m.out.MinDeficit = res.MinDeficit
	m.out.Actions = res.Actions
	m.out.Rates = res.Rates
	m.out.Loads = res.Loads
	m.out.Capacities = res.Capacities
	m.out.PoolIDs = m.poolIDs
	m.out.Missed = m.missed
}

// stageErr and bufferErr build stepRound's failure messages off the hot
// path so the round body stays free of fmt calls.
func (m *manager) stageErr(err error) error {
	return fmt.Errorf("distsim: channel %q: %w", m.name, err)
}

func (m *manager) bufferErr(err error) error {
	return fmt.Errorf("distsim: channel %q buffer: %w", m.name, err)
}

// poolMinWork is the round size, in Σ over channels of viewers × actions
// per viewer, from which the managers step on the fork-join executor. A
// viewer's select and update are O(actions), so the sum is PERF.md's
// per-stage learner cost; below it waking a worker costs more than a
// second core saves. It is the smallest measured shape where two lanes
// won at least 7 of 8 pairs (PERF.md "The fork-join executor").
const poolMinWork = 16000

// PoolGate returns the gate a round's channels fork behind: lanes up to
// GOMAXPROCS once a round reaches poolMinWork. The cluster's
// shared-memory backend steps its channels behind the same gate.
func PoolGate() forkjoin.Gate { return forkjoin.NewGate(poolMinWork) }

// Runtime owns the nodes of one distributed deployment. Drive it with
// StepRound and release it with Close; ops enqueued between rounds are
// applied at the start of the next round.
type Runtime struct {
	managers []*manager
	nodes    []*helperNode
	stats    RoundStats
	round    int
	// gate and group step the managers on the executor; steps is the
	// fork's task.
	gate  forkjoin.Gate
	group forkjoin.Group
	steps roundSteps
	// batchSizes is the merge target for the managers' local size
	// histograms (Config.BatchSizes; nil when disabled).
	batchSizes *telemetry.Histogram
	// spans/profiled drive round-span profiling (Config.Spans/SpanClock).
	// wallScratch and sortScratch are reusable per-round buffers so the
	// profile computation allocates nothing in steady state; taxSum and
	// taxRounds accumulate the running barrier tax.
	spans    *telemetry.Recorder
	profiled bool
	// clock is the coordinator's monotonic clock for the per-round
	// WallNs accounting: Config.SpanClock when set, otherwise
	// telemetry.MonotonicNow — one clock seam for every wall-time read
	// in the runtime (the managers' span stamps share it).
	clock       func() int64
	wallScratch []int64
	sortScratch []int64
	profile     RoundProfile
	taxSum      float64
	taxRounds   int
	closed      bool
}

// roundSteps is the executor's task over a round's channels: Do(ci)
// steps manager ci through the round.
type roundSteps struct {
	managers []*manager
	round    int
}

func (t *roundSteps) Do(ci int) { t.managers[ci].step(t.round) }

// New validates the config and builds the deployment. Construction is
// eager: every channel's system is built, so config errors surface here.
func New(cfg Config) (*Runtime, error) {
	if len(cfg.Channels) == 0 {
		return nil, errors.New("distsim: no channels")
	}
	if len(cfg.Helpers) == 0 {
		return nil, errors.New("distsim: no helpers")
	}
	if len(cfg.Assign) != len(cfg.Helpers) {
		return nil, fmt.Errorf("distsim: %d assignments for %d helpers", len(cfg.Assign), len(cfg.Helpers))
	}
	poolSize := make([]int, len(cfg.Channels))
	for h, ci := range cfg.Assign {
		if ci < 0 || ci >= len(cfg.Channels) {
			return nil, fmt.Errorf("distsim: helper %d assigned to channel %d of %d", h, ci, len(cfg.Channels))
		}
		poolSize[ci]++
	}
	for ci, n := range poolSize {
		if n == 0 {
			return nil, fmt.Errorf("distsim: channel %q holds no helpers", cfg.Channels[ci].Name)
		}
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(len(cfg.Helpers), len(cfg.Channels)); err != nil {
			return nil, err
		}
	}
	var linkMaster *xrand.Rand
	if cfg.Link != nil {
		linkMaster = xrand.New(cfg.LinkSeed)
	}
	rt := &Runtime{
		nodes:      make([]*helperNode, len(cfg.Helpers)),
		gate:       PoolGate(),
		batchSizes: cfg.BatchSizes,
		spans:      cfg.Spans,
		profiled:   cfg.Spans != nil || cfg.SpanClock != nil,
	}
	spanClock := cfg.SpanClock
	if spanClock == nil {
		spanClock = telemetry.MonotonicNow
	}
	rt.clock = spanClock
	if rt.profiled {
		rt.wallScratch = make([]int64, len(cfg.Channels))
		rt.sortScratch = make([]int64, len(cfg.Channels))
		rt.stats.Profile = &rt.profile
	}
	rt.stats.Channels = make([]ChannelRound, len(cfg.Channels))
	for ci, cc := range cfg.Channels {
		if cc.StartupStages < 0 {
			return nil, fmt.Errorf("distsim: channel %q StartupStages=%g", cc.Name, cc.StartupStages)
		}
		// The channel's pool in global-id order — the same order the
		// shared-memory cluster engine builds per-channel systems in, so
		// the construction-time random draws line up exactly.
		var pool []core.HelperSpec
		var ids []int
		for h, target := range cfg.Assign {
			if target == ci {
				pool = append(pool, cfg.Helpers[h])
				ids = append(ids, h)
			}
		}
		sys, err := core.New(core.Config{
			NumPeers:      cc.InitialPeers,
			Helpers:       pool,
			Factory:       cfg.Factory,
			Seed:          cc.Seed,
			DemandPerPeer: cc.DemandPerPeer,
			UtilityScale:  cfg.UtilityScale,
			ViewSize:      cfg.ViewSize,
			ViewRefresh:   cfg.ViewRefresh,
		})
		if err != nil {
			return nil, fmt.Errorf("distsim: channel %q: %w", cc.Name, err)
		}
		m := &manager{
			id:      ci,
			name:    cc.Name,
			sys:     sys,
			factory: cfg.Factory,
			demand:  cc.DemandPerPeer,
			startup: cc.StartupStages,
			out:     &rt.stats.Channels[ci],
			link:    cfg.Link,
			faults:  cfg.Faults,
			caps:    make([]float64, len(pool)),
			ok:      make([]bool, len(pool)),
			down:    make([]bool, len(pool)),
			lateJ:   make([]bool, len(pool)),
			poolIDs: make([]int, len(pool)),
			missed:  make([]bool, len(pool)),
		}
		if cfg.Faults != nil {
			m.queueing = cfg.Faults.Queueing
		}
		m.sizes = cfg.BatchSizes.NewLike()
		if rt.profiled {
			m.clock = spanClock
		}
		if linkMaster != nil {
			m.linkRng = linkMaster.Split()
		}
		rt.stats.Channels[ci].Name = cc.Name
		if cc.StartupStages > 0 {
			for i := 0; i < cc.InitialPeers; i++ {
				buf, err := streaming.NewBuffer(cc.DemandPerPeer, cc.StartupStages)
				if err != nil {
					return nil, fmt.Errorf("distsim: channel %q buffer: %w", cc.Name, err)
				}
				m.bufs = append(m.bufs, buf)
			}
			m.deferred = make([]float64, cc.InitialPeers)
		}
		for local, h := range ids {
			node := &helperNode{id: h, link: cfg.Link}
			rt.nodes[h] = node
			m.pool = append(m.pool, poolHelper{
				id:     h,
				node:   node,
				proc:   sys.HelperProcess(local),
				levels: sys.HelperLevels(local),
			})
		}
		rt.managers = append(rt.managers, m)
	}
	rt.steps.managers = rt.managers
	if linkMaster != nil {
		for _, node := range rt.nodes {
			node.linkRng = linkMaster.Split()
		}
	}
	return rt, nil
}

// NumChannels returns the channel count.
func (rt *Runtime) NumChannels() int { return len(rt.managers) }

// Round returns the number of completed rounds.
func (rt *Runtime) Round() int { return rt.round }

// BarrierTax returns the mean over profiled rounds of each round's
// barrier tax (RoundProfile.IdleNs / TotalNs): the share of a round that
// one node per manager would spend idle at the round's join. Zero when
// profiling is disabled or no round has run. The mean weighs every round
// once, so one round stretched by a preempted manager cannot dominate
// it. This is the number the ROADMAP's asynchronous-rounds item needs:
// it bounds the throughput gain un-barriering the coordinator could buy.
func (rt *Runtime) BarrierTax() float64 {
	if rt.taxRounds == 0 {
		return 0
	}
	return rt.taxSum / float64(rt.taxRounds)
}

// AddPeer queues a viewer join on channel ci, applied at the next round
// before selection. The new peer's local index is the channel's current
// peer count at application time (joins append).
func (rt *Runtime) AddPeer(ci int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.managers[ci].ops = append(rt.managers[ci].ops, op{kind: opAddPeer})
	return nil
}

// RemovePeer queues a viewer departure (channel ci, local peer index),
// applied at the next round. Later local indices shift down, exactly as in
// core.System.RemovePeer.
func (rt *Runtime) RemovePeer(ci, local int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.managers[ci].ops = append(rt.managers[ci].ops, op{kind: opRemovePeer, local: local})
	return nil
}

// AddHelper queues a helper migration into channel ci: the gaining manager
// builds the helper's fresh bandwidth process from its own stream and
// takes helper node `id` into its pool. Queue all of a migration's
// additions before its removals so no channel is ever left empty (the
// order internal/cluster's migrate pass already uses), and leave every
// helper in exactly one pool once the round's ops apply.
func (rt *Runtime) AddHelper(ci int, id int, spec core.HelperSpec) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	if id < 0 || id >= len(rt.nodes) {
		return fmt.Errorf("distsim: AddHelper id %d of %d", id, len(rt.nodes))
	}
	rt.managers[ci].ops = append(rt.managers[ci].ops, op{
		kind: opAddHelper, helper: id, spec: spec, node: rt.nodes[id],
	})
	return nil
}

// RemoveHelper queues a helper migration out of channel ci (local pool
// index, global id to corroborate it). The losing manager drops the node
// from its pool; the gaining manager's AddHelper has taken it in.
func (rt *Runtime) RemoveHelper(ci, local, id int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.managers[ci].ops = append(rt.managers[ci].ops, op{kind: opRemoveHelper, local: local, helper: id})
	return nil
}

func (rt *Runtime) checkChannel(ci int) error {
	if ci < 0 || ci >= len(rt.managers) {
		return fmt.Errorf("distsim: channel %d of %d", ci, len(rt.managers))
	}
	if rt.closed {
		return errors.New("distsim: runtime closed")
	}
	return nil
}

// StepRound runs one protocol round across every node and returns the
// per-channel stats. The returned struct and its slices are reused — read
// them before the next StepRound (or copy). The error of the lowest
// failing channel is returned; a failed channel stays failed and reports
// zeros, while the others keep simulating.
func (rt *Runtime) StepRound() (*RoundStats, error) {
	if rt.closed {
		return nil, errors.New("distsim: runtime closed")
	}
	t0 := rt.clock()
	work := 0
	for _, m := range rt.managers {
		work += m.sys.NumPeers() * m.sys.NewPeerActions()
	}
	rt.steps.round = rt.round
	rt.group.Run(len(rt.managers), rt.gate.Width(len(rt.managers), work), &rt.steps)
	// The round has joined: aggregate its accounting and merge the
	// manager-local size histograms in channel order (deterministic
	// integer counts).
	var firstErr error
	rt.stats.Msgs, rt.stats.Batches = 0, 0
	for ci, m := range rt.managers {
		if m.err != nil && firstErr == nil {
			firstErr = m.err
		}
		rt.stats.Msgs += rt.stats.Channels[ci].Msgs
		rt.stats.Batches += rt.stats.Channels[ci].Batches
	}
	if rt.batchSizes != nil {
		for _, m := range rt.managers {
			rt.batchSizes.Merge(m.sizes)
			m.sizes.Reset()
		}
	}
	if rt.profiled {
		for ci := range rt.stats.Channels {
			cr := &rt.stats.Channels[ci]
			rt.wallScratch[ci] = cr.EndNs - cr.StartNs
			rt.spans.Record(telemetry.RoundSpan{
				Round:      rt.round,
				Channel:    ci,
				StartNs:    cr.StartNs,
				EndNs:      cr.EndNs,
				Batches:    cr.Batches,
				LateServed: cr.LateServed,
			})
		}
		profileRound(&rt.profile, rt.round, rt.wallScratch, rt.sortScratch)
		if rt.profile.TotalNs > 0 {
			rt.taxSum += float64(rt.profile.IdleNs) / float64(rt.profile.TotalNs)
		}
		rt.taxRounds++
	}
	rt.stats.WallNs = rt.clock() - t0
	rt.stats.Round = rt.round
	rt.round++
	return &rt.stats, firstErr
}

// SetPoolGate replaces the gate the managers step behind, from the next
// round on: forkjoin.Gate{Procs: 1} steps them inline, and Procs > 1
// with MinWork 0 forks them on min(Procs, channels) lanes whatever the
// round's size. Results never depend on it; parity tests use it to pin
// both sides of the gate whatever the host.
func (rt *Runtime) SetPoolGate(g forkjoin.Gate) { rt.gate = g }

// Close shuts the deployment down. Nodes hold no goroutines, so there is
// nothing to join: later rounds and queued ops fail. Close is idempotent.
func (rt *Runtime) Close() error {
	rt.closed = true
	return nil
}
