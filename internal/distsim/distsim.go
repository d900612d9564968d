// Package distsim is the batched message-passing runtime: it runs a full
// multi-channel helper-selection deployment — many channels, one shared
// helper pool, helper re-allocation epochs — as communicating nodes, while
// keeping the per-round message count at O(helpers + channels) instead of
// the O(peers) a goroutine-per-peer runtime pays.
//
// # Node roles
//
//   - A channel-manager node per channel (one goroutine each) hosts the
//     channel's peers: their selection policies, playout buffers, and the
//     channel's private random stream. Peers are simulated in the manager
//     because a per-peer goroutine buys no fidelity — the paper's
//     zero-knowledge property is enforced by the bandit feedback each
//     policy receives, not by the process boundary — and costs one channel
//     send per peer per round.
//   - A helper node per pool helper (one goroutine each) owns the helper's
//     Markov bandwidth process. Its inbox receives exactly one slice-valued
//     attach batch per round — the list of local peers its owning channel
//     attached this round — and it replies with its realized capacity.
//   - The coordinator (the caller's goroutine, driving StepRound) ticks the
//     managers, collects one report per channel, and applies queued
//     membership/migration ops. Helper re-allocation executes as control
//     messages: the gaining manager builds the helper's fresh bandwidth
//     process and ships it to the helper node together with the manager's
//     reply channel — an ownership hand-off, no shared state.
//
// # Round protocol
//
// Rounds are synchronous, matching the repeated-game model. For a round:
//
//  1. the coordinator sends each manager a tick carrying the round's
//     queued ops (joins, departures, helper migrations) — O(channels);
//  2. each manager applies its ops, runs the selection pass over its
//     peers, and sends each pool helper one attach batch — O(helpers)
//     across all managers, each batch a single slice-valued message;
//  3. each helper node advances its bandwidth chain once, serves the
//     batch, and replies with its capacity — O(helpers);
//  4. each manager realizes rates (C_j/load_j via core.FinishStage — the
//     exact arithmetic of the shared-memory engine), feeds its learners,
//     ticks playout buffers, and reports the round's channel aggregates to
//     the coordinator — O(channels).
//
// Every send targets a buffered channel sized to the protocol's bound, so
// the system cannot deadlock; all goroutines are joined by Close.
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
	"sync"

	"rths/internal/core"
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
	// (peers per batch). Each manager fills a private same-bucket twin on
	// its own goroutine and the coordinator merges the twins in channel
	// order once the round's managers are quiescent, so the merged counts
	// are deterministic. Nil disables the instrument.
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
	// synthetic, deterministic span durations. Called from every manager
	// goroutine, so it must be safe for concurrent use. Setting
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
	// deployment costs 2H + 2C messages per round plus migrations.
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
	// round (monotonic nanoseconds; 0 when profiling is disabled). Like
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

// RoundProfile attributes one round's wall time to its critical path:
// the synchronous coordinator waits for every channel, so the slowest
// channel gates the fleet and everyone else's residual is idle time.
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
	// IdleNs is Σ over channels of (straggler span − own span): the
	// fleet time spent waiting at the barrier this round. TotalNs is
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

type msgKind uint8

const (
	msgAttach msgKind = iota
	msgOwner
	msgStop
)

// helperMsg is the union message type of a helper node's inbox: one attach
// batch per round from the owning manager, ownership transfers at
// migration boundaries, and the shutdown sentinel.
type helperMsg struct {
	kind   msgKind
	round  int
	peers  []int32 // attach batch: local peer indices, batched per round
	failed bool    // link verdict: dropped or past the round deadline
	seq    uint64  // ownership hand-off: the AddHelper call order
	proc   *markov.Process
	levels []float64
	reply  chan<- replyMsg
}

// replyMsg is a helper node's per-round reply to its owning manager.
type replyMsg struct {
	helper   int
	round    int
	capacity float64
	dropped  bool
	late     bool
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
	local  int    // RemovePeer / RemoveHelper local index
	helper int    // global helper id (AddHelper / RemoveHelper)
	seq    uint64 // AddHelper: runtime-wide call order of the hand-off
	spec   core.HelperSpec
	node   *helperNode
}

type tickMsg struct {
	round int
	ops   []op
	stop  bool
}

type reportMsg struct {
	channel int
	err     error
}

// helperNode owns one pool helper's bandwidth process. It serves exactly
// one attach batch per round from whichever manager currently owns it.
type helperNode struct {
	id      int
	inbox   chan helperMsg
	levels  []float64
	proc    *markov.Process
	reply   chan<- replyMsg
	owner   uint64 // seq of the hand-off held (0: the construction-time owner)
	link    LinkModel
	linkRng *xrand.Rand
}

func (n *helperNode) run() {
	for {
		msg := <-n.inbox
		switch msg.kind {
		case msgStop:
			return
		case msgOwner:
			// Migration hand-off: fresh process (built from the gaining
			// channel's stream), fresh reply route. One round can carry two
			// hand-offs from different managers (a readmission into A and
			// a migration A→B at the same boundary), and they race to the
			// inbox; the later AddHelper call is the owner, so an older
			// hand-off arriving second is ignored.
			if msg.seq < n.owner {
				continue
			}
			n.owner = msg.seq
			n.proc, n.levels, n.reply = msg.proc, msg.levels, msg.reply
		case msgAttach:
			// The environment moves once per round regardless of load or
			// link fate.
			n.proc.Step()
			capacity := n.levels[n.proc.State()]
			rep := replyMsg{helper: n.id, round: msg.round, capacity: capacity}
			if n.link != nil {
				delay, drop := n.link.Deliver(n.linkRng, msg.round)
				rep.dropped = drop
				rep.late = !drop && delay > 0
			}
			n.reply <- rep
		}
	}
}

// poolHelper is a manager's handle on one of its pool helpers.
type poolHelper struct {
	id   int
	node *helperNode
}

// manager is one channel-manager node: it hosts the channel's peers
// (selection policies, buffers) and speaks the batched protocol with its
// pool helpers and the coordinator.
type manager struct {
	id      int
	name    string
	sys     *core.System
	factory core.SelectorFactory
	demand  float64
	startup float64
	bufs    []*streaming.Buffer
	pool    []poolHelper

	tick    chan tickMsg
	replies chan replyMsg
	reports chan<- reportMsg
	out     *ChannelRound

	link    LinkModel
	linkRng *xrand.Rand

	faults   *FaultPlan
	queueing bool

	batch [][]int32 // reusable per-helper attach lists
	caps  []float64 // per-helper realized capacities
	ok    []bool    // per-helper link success this round

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

	err error // sticky: a failed manager keeps the protocol alive but inert
}

func (m *manager) run() {
	for {
		t := <-m.tick
		if t.stop {
			// Node shutdown is the coordinator's job (Close stops every
			// helper node directly), so a manager whose ownership
			// bookkeeping died mid-migration cannot orphan a node.
			return
		}
		// Full reset: a failed channel reports zeros, not its last good
		// round (struct assignment only rewrites headers — no allocation).
		*m.out = ChannelRound{Name: m.name}
		if m.clock != nil {
			m.out.StartNs = m.clock()
		}
		if m.err == nil {
			m.applyOps(t.ops)
		}
		if m.err == nil {
			m.stepRound(t.round)
		}
		if m.clock != nil {
			m.out.EndNs = m.clock()
		}
		m.reports <- reportMsg{channel: m.id, err: m.err}
	}
}

// applyOps applies the round's queued membership/migration operations in
// enqueue order, mirroring the shared-memory engine's call sequence.
func (m *manager) applyOps(ops []op) {
	for _, o := range ops {
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
			local := m.sys.NumHelpers() - 1
			// Ownership hand-off: the helper node gets the fresh process
			// (drawn from this channel's stream, exactly as the
			// shared-memory engine's AddHelper does) and this manager's
			// reply route. Channel-send ordering guarantees the node sees
			// the hand-off before this round's attach batch.
			o.node.inbox <- helperMsg{
				kind:   msgOwner,
				seq:    o.seq,
				proc:   m.sys.HelperProcess(local),
				levels: m.sys.HelperLevels(local),
				reply:  m.replies,
			}
			m.out.Msgs++ // ownership hand-off
			m.pool = append(m.pool, poolHelper{id: o.helper, node: o.node})
			m.batch = append(m.batch, nil)
			m.caps = append(m.caps, 0)
			m.ok = append(m.ok, false)
			m.down = append(m.down, false)
			m.lateJ = append(m.lateJ, false)
			m.poolIDs = append(m.poolIDs, o.helper)
			m.missed = append(m.missed, false)
		case opRemoveHelper:
			// The global id must corroborate the local index: removing the
			// wrong pool slot would leave the named node owned by two
			// managers at once, and the stale owner's round-reply can then
			// be routed to the new owner — a protocol deadlock, not just a
			// wrong metric. Fail the channel instead.
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
			// The node itself is not contacted: its new owner has already
			// sent the hand-off (additions precede removals in a migration
			// batch, so no channel is ever left empty mid-flight).
			m.pool = append(m.pool[:o.local], m.pool[o.local+1:]...)
			m.batch = m.batch[:len(m.pool)]
			m.caps = m.caps[:len(m.pool)]
			m.ok = m.ok[:len(m.pool)]
			m.down = m.down[:len(m.pool)]
			m.lateJ = m.lateJ[:len(m.pool)]
			m.poolIDs = m.poolIDs[:len(m.pool)]
			m.missed = m.missed[:len(m.pool)]
		}
	}
}

// stepRound runs one protocol round for this channel: select, batch-attach,
// collect capacities, realize rates and feedback, tick buffers, report.
//
//rths:hotpath
func (m *manager) stepRound(round int) {
	actions, loads, err := m.sys.SelectStage()
	if err != nil {
		m.err = m.stageErr(err)
		return
	}
	// One slice-valued attach batch per pool helper — the whole round's
	// peer->helper traffic in len(pool) messages.
	for j := range m.batch {
		m.batch[j] = m.batch[j][:0]
	}
	for i, a := range actions {
		m.batch[a] = append(m.batch[a], int32(i))
	}
	for j, ph := range m.pool {
		// The fault plan adjudicates first (it is deterministic), but the
		// link draw is consumed unconditionally so a run with a plan sees
		// the exact random streams of the same run without one.
		down := m.faults != nil && m.faults.Unreachable(ph.id, m.id, round)
		m.down[j] = down
		failed, late := down, false
		if m.link != nil {
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
		if down {
			m.out.FaultMsgs++
		}
		m.ok[j] = !failed
		m.lateJ[j] = late
		ph.node.inbox <- helperMsg{kind: msgAttach, round: round, peers: m.batch[j], failed: failed}
	}
	for range m.pool {
		rep := <-m.replies
		local := -1
		for j, ph := range m.pool {
			if ph.id == rep.helper {
				local = j
				break
			}
		}
		if local < 0 || rep.round != round {
			m.err = m.replyErr(rep.helper, rep.round, round)
			return
		}
		// An unreachable helper's reply never arrives; its own link draw
		// was still consumed by the node (stream alignment), but the
		// verdict is moot — the exchange already failed.
		if !m.down[local] && (rep.dropped || rep.late) {
			if rep.dropped {
				m.out.LostMsgs++
				m.ok[local] = false
			} else {
				m.out.LateMsgs++
				if m.queueing {
					m.lateJ[local] = true
				} else {
					m.ok[local] = false
				}
			}
		}
		m.caps[local] = rep.capacity
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

// stageErr, replyErr and bufferErr build stepRound's failure messages off
// the hot path so the round body stays free of fmt calls.
func (m *manager) stageErr(err error) error {
	return fmt.Errorf("distsim: channel %q: %w", m.name, err)
}

func (m *manager) replyErr(helper, got, want int) error {
	return fmt.Errorf("distsim: channel %q got reply from helper %d round %d during round %d",
		m.name, helper, got, want)
}

func (m *manager) bufferErr(err error) error {
	return fmt.Errorf("distsim: channel %q buffer: %w", m.name, err)
}

// Runtime owns the nodes of one distributed deployment. Drive it with
// StepRound and release it with Close; ops enqueued between rounds are
// applied at the start of the next round.
type Runtime struct {
	managers []*manager
	nodes    []*helperNode
	reports  chan reportMsg
	stats    RoundStats
	pending  [][]op
	round    int
	// handoffs counts AddHelper calls; each queued hand-off carries its
	// count so a helper node can tell which of two same-round hand-offs
	// the coordinator issued last.
	handoffs uint64
	// batchSizes is the merge target for the managers' local size
	// histograms (Config.BatchSizes; nil when disabled).
	batchSizes *telemetry.Histogram
	// spans/profiled drive round-span profiling (Config.Spans/SpanClock).
	// wallScratch and sortScratch are reusable per-round buffers so the
	// profile computation allocates nothing in steady state; cumIdleNs
	// and cumTotalNs accumulate the running barrier tax.
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
	cumIdleNs   int64
	cumTotalNs  int64
	started     bool
	closed      bool
	wg          sync.WaitGroup
}

// New validates the config and builds the deployment. Construction is
// eager (every channel's system is built, so config errors surface here);
// node goroutines start on the first StepRound.
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
		reports:    make(chan reportMsg, len(cfg.Channels)),
		nodes:      make([]*helperNode, len(cfg.Helpers)),
		pending:    make([][]op, len(cfg.Channels)),
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
			tick:    make(chan tickMsg, 1),
			replies: make(chan replyMsg, len(cfg.Helpers)),
			reports: rt.reports,
			out:     &rt.stats.Channels[ci],
			link:    cfg.Link,
			faults:  cfg.Faults,
			batch:   make([][]int32, len(pool)),
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
			node := &helperNode{
				id:     h,
				inbox:  make(chan helperMsg, 4),
				levels: sys.HelperLevels(local),
				proc:   sys.HelperProcess(local),
				reply:  m.replies,
				link:   cfg.Link,
			}
			rt.nodes[h] = node
			m.pool = append(m.pool, poolHelper{id: h, node: node})
		}
		rt.managers = append(rt.managers, m)
	}
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

// BarrierTax returns the cumulative fraction of fleet time spent idle
// at the round barrier since the runtime started: Σ idle / Σ total
// across profiled rounds. Zero when profiling is disabled or no round
// has run. This is the number the ROADMAP's asynchronous-rounds item
// needs: it bounds the throughput gain un-barriering the coordinator
// could buy.
func (rt *Runtime) BarrierTax() float64 {
	if rt.cumTotalNs == 0 {
		return 0
	}
	return float64(rt.cumIdleNs) / float64(rt.cumTotalNs)
}

// AddPeer queues a viewer join on channel ci, applied at the next round
// before selection. The new peer's local index is the channel's current
// peer count at application time (joins append).
func (rt *Runtime) AddPeer(ci int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.pending[ci] = append(rt.pending[ci], op{kind: opAddPeer})
	return nil
}

// RemovePeer queues a viewer departure (channel ci, local peer index),
// applied at the next round. Later local indices shift down, exactly as in
// core.System.RemovePeer.
func (rt *Runtime) RemovePeer(ci, local int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.pending[ci] = append(rt.pending[ci], op{kind: opRemovePeer, local: local})
	return nil
}

// AddHelper queues a helper migration into channel ci: the gaining manager
// builds the helper's fresh bandwidth process from its own stream and
// hands ownership of helper node `id` over by control message. Queue all
// of a migration's additions before its removals so no channel is ever
// left empty (the order internal/cluster's migrate pass already uses).
// When one round queues several additions of the same helper, the last
// call owns the node.
func (rt *Runtime) AddHelper(ci int, id int, spec core.HelperSpec) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	if id < 0 || id >= len(rt.nodes) {
		return fmt.Errorf("distsim: AddHelper id %d of %d", id, len(rt.nodes))
	}
	rt.handoffs++
	rt.pending[ci] = append(rt.pending[ci], op{
		kind: opAddHelper, helper: id, seq: rt.handoffs, spec: spec, node: rt.nodes[id],
	})
	return nil
}

// RemoveHelper queues a helper migration out of channel ci (local pool
// index, global id for error reporting). The losing manager forgets the
// node; the gaining manager's AddHelper hand-off re-routes it.
func (rt *Runtime) RemoveHelper(ci, local, id int) error {
	if err := rt.checkChannel(ci); err != nil {
		return err
	}
	rt.pending[ci] = append(rt.pending[ci], op{kind: opRemoveHelper, local: local, helper: id})
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
// them before the next StepRound (or copy). The first error any node hit
// is returned; the runtime stays protocol-alive after an error (so Close
// always works), but failed channels stop simulating.
func (rt *Runtime) StepRound() (*RoundStats, error) {
	if rt.closed {
		return nil, errors.New("distsim: runtime closed")
	}
	t0 := rt.clock()
	if !rt.started {
		rt.started = true
		for _, m := range rt.managers {
			rt.wg.Add(1)
			go func(m *manager) {
				defer rt.wg.Done()
				m.run()
			}(m)
		}
		for _, n := range rt.nodes {
			rt.wg.Add(1)
			go func(n *helperNode) {
				defer rt.wg.Done()
				n.run()
			}(n)
		}
	}
	for ci, m := range rt.managers {
		m.tick <- tickMsg{round: rt.round, ops: rt.pending[ci]}
	}
	var firstErr error
	for range rt.managers {
		rep := <-rt.reports
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
	}
	// Managers are quiescent again: reclaim the op queues for reuse,
	// aggregate the round accounting, and merge the manager-local size
	// histograms in channel order (deterministic integer counts).
	for ci := range rt.pending {
		rt.pending[ci] = rt.pending[ci][:0]
	}
	rt.stats.Msgs, rt.stats.Batches = 0, 0
	for ci := range rt.stats.Channels {
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
		rt.cumIdleNs += rt.profile.IdleNs
		rt.cumTotalNs += rt.profile.TotalNs
	}
	rt.stats.WallNs = rt.clock() - t0
	rt.stats.Round = rt.round
	rt.round++
	return &rt.stats, firstErr
}

// Close shuts the deployment down: every manager and every helper node
// receives the stop sentinel directly from the coordinator — node
// shutdown never depends on ownership bookkeeping, so a migration that
// died half-applied cannot orphan a node — and every goroutine is joined.
// Close is idempotent.
func (rt *Runtime) Close() error {
	if rt.closed {
		return nil
	}
	rt.closed = true
	if rt.started {
		for _, m := range rt.managers {
			m.tick <- tickMsg{stop: true}
		}
		for _, n := range rt.nodes {
			n.inbox <- helperMsg{kind: msgStop}
		}
		rt.wg.Wait()
	}
	return nil
}
