package cluster

import (
	"strconv"

	"rths/internal/distsim"
	"rths/internal/telemetry"
)

// clusterTelemetry is the director's instrument set. It is built even
// when telemetry is disabled (a nil registry hands out nil instruments
// whose methods no-op), so the call sites never branch; `enabled` gates
// only the work that has a real cost either way — wall-clock reads and
// the per-stage scratch reduction.
type clusterTelemetry struct {
	enabled bool

	// clock is the director's monotonic clock for stage-latency
	// observations — the telemetry.MonotonicNow seam, so every profiled
	// wall-time read in a run (cluster stage timing, distsim WallNs and
	// round spans) comes off one clock.
	clock func() int64

	// Gauges: the latest epoch's observables, refreshed at each boundary
	// (active peers and helpers down also refresh per stage/eviction).
	welfareRatio *telemetry.Gauge
	continuity   *telemetry.Gauge
	maxDeficit   *telemetry.Gauge
	activePeers  *telemetry.Gauge
	helpersDown  *telemetry.Gauge

	// Counters: lifetime totals, updated per stage or per boundary.
	stages       *telemetry.Counter
	epochs       *telemetry.Counter
	moves        *telemetry.Counter
	joins        *telemetry.Counter
	leaves       *telemetry.Counter
	switches     *telemetry.Counter
	suspected    *telemetry.Counter
	evictions    *telemetry.Counter
	readmissions *telemetry.Counter
	viewSwaps    *telemetry.Counter

	// Distsim round accounting.
	msgs       *telemetry.Counter
	batches    *telemetry.Counter
	lostMsgs   *telemetry.Counter
	lateMsgs   *telemetry.Counter
	lateServed *telemetry.Counter
	faultMsgs  *telemetry.Counter

	// Histograms.
	stageSeconds *telemetry.Histogram
	batchSizes   *telemetry.Histogram

	// Dimensional series: labeled families resolved to plain per-entity
	// handles at construction (With is a one-time lookup; the handles
	// are ordinary atomic instruments), indexed by channel index /
	// global helper id. Channel gauges refresh at epoch boundaries,
	// helper gauges after each re-allocation, straggler counters per
	// stage.
	chWelfare    []*telemetry.Gauge
	chContinuity []*telemetry.Gauge
	chActive     []*telemetry.Gauge
	chDeficit    []*telemetry.Gauge
	chPool       []*telemetry.Gauge
	chStraggler  []*telemetry.Counter
	hAssign      []*telemetry.Gauge
	hExpCap      []*telemetry.Gauge
	hDown        []*telemetry.Gauge

	// Round-span attribution (distsim backend with telemetry only).
	barrierTax    *telemetry.Gauge
	stragglerLead *telemetry.Gauge
}

// newClusterTelemetry registers the cluster's instruments on reg,
// including the per-channel and per-helper labeled families with one
// pre-resolved handle per entity (channels label by configured name,
// helpers by global id). A nil registry yields a disabled set: every
// instrument is nil (no-op) and enabled is false.
func newClusterTelemetry(reg *telemetry.Registry, channelNames []string, helpers int) *clusterTelemetry {
	t := &clusterTelemetry{
		enabled: reg != nil,
		clock:   telemetry.MonotonicNow,

		welfareRatio: reg.NewGauge("rths_welfare_ratio", "Last epoch's welfare / optimal welfare."),
		continuity:   reg.NewGauge("rths_continuity", "Last epoch's playback continuity played/(played+stalled)."),
		maxDeficit:   reg.NewGauge("rths_max_deficit_kbps", "Last epoch boundary's worst-channel residual demand (kbps)."),
		activePeers:  reg.NewGauge("rths_active_peers", "Current audience size across all channels."),
		helpersDown:  reg.NewGauge("rths_helpers_down", "Helpers currently sitting evicted by the failure detector."),

		stages:       reg.NewCounter("rths_stages_total", "Completed stages."),
		epochs:       reg.NewCounter("rths_epochs_total", "Completed re-allocation epochs."),
		moves:        reg.NewCounter("rths_helper_moves_total", "Helpers migrated at epoch boundaries."),
		joins:        reg.NewCounter("rths_viewer_joins_total", "Viewer joins (flash crowds, scenario and replayed churn)."),
		leaves:       reg.NewCounter("rths_viewer_leaves_total", "Viewer departures."),
		switches:     reg.NewCounter("rths_viewer_switches_total", "Viewer channel switches (Markov zapping and replayed)."),
		suspected:    reg.NewCounter("rths_suspected_helpers_total", "Detector suspicion threshold crossings."),
		evictions:    reg.NewCounter("rths_evicted_helpers_total", "Detector evictions."),
		readmissions: reg.NewCounter("rths_readmitted_helpers_total", "Post-probation readmissions."),
		viewSwaps:    reg.NewCounter("rths_view_swaps_total", "Partial-view refresh swaps across all channels."),

		msgs:       reg.NewCounter("rths_distsim_msgs_total", "Distsim protocol messages (ticks, reports, attaches, replies, hand-offs)."),
		batches:    reg.NewCounter("rths_distsim_batches_total", "Distsim attach batches sent (one per pool helper per round)."),
		lostMsgs:   reg.NewCounter("rths_distsim_lost_msgs_total", "Distsim data-plane messages dropped by the link model."),
		lateMsgs:   reg.NewCounter("rths_distsim_late_msgs_total", "Distsim data-plane messages past the round deadline."),
		lateServed: reg.NewCounter("rths_distsim_late_served_total", "Late attach batches buffered and served under queueing semantics."),
		faultMsgs:  reg.NewCounter("rths_distsim_fault_msgs_total", "Helper exchanges suppressed by the fault plan."),

		stageSeconds: reg.NewHistogram("rths_stage_seconds",
			"Wall-clock duration of one cluster stage (backend step).", telemetry.LatencyBuckets()),
		batchSizes: reg.NewHistogram("rths_distsim_batch_peers",
			"Peers per distsim attach batch (merged from manager-local histograms in channel order).", telemetry.SizeBuckets()),

		barrierTax: reg.NewGauge("rths_barrier_tax",
			"Cumulative fleet idle time at the distsim round barrier / total fleet time."),
		stragglerLead: reg.NewGauge("rths_straggler_lead_ratio",
			"Last round's (straggler span - median span) / straggler span."),
	}

	chWelfare := reg.NewLabeledGauge("rths_channel_welfare_ratio",
		"Last epoch's per-channel welfare / optimal welfare.", "channel")
	chContinuity := reg.NewLabeledGauge("rths_channel_continuity",
		"Last epoch's per-channel playback continuity.", "channel")
	chActive := reg.NewLabeledGauge("rths_channel_active_peers",
		"Per-channel audience size at the last epoch boundary.", "channel")
	chDeficit := reg.NewLabeledGauge("rths_channel_deficit_kbps",
		"Per-channel residual demand under the post-boundary assignment (kbps).", "channel")
	chPool := reg.NewLabeledGauge("rths_channel_pool_helpers",
		"Helpers assigned to the channel after the last boundary.", "channel")
	chStraggler := reg.NewLabeledCounter("rths_channel_straggler_rounds_total",
		"Rounds in which the channel was the fleet's critical path.", "channel")
	for _, name := range channelNames {
		t.chWelfare = append(t.chWelfare, chWelfare.With(name))
		t.chContinuity = append(t.chContinuity, chContinuity.With(name))
		t.chActive = append(t.chActive, chActive.With(name))
		t.chDeficit = append(t.chDeficit, chDeficit.With(name))
		t.chPool = append(t.chPool, chPool.With(name))
		t.chStraggler = append(t.chStraggler, chStraggler.With(name))
	}

	hAssign := reg.NewLabeledGauge("rths_helper_assigned_channel",
		"The helper's current channel index.", "helper")
	hExpCap := reg.NewLabeledGauge("rths_helper_expected_capacity_kbps",
		"The helper's effective expected capacity (0 while unreachable at the boundary).", "helper")
	hDown := reg.NewLabeledGauge("rths_helper_down",
		"1 while the failure detector holds the helper evicted.", "helper")
	for h := 0; h < helpers; h++ {
		id := strconv.Itoa(h)
		t.hAssign = append(t.hAssign, hAssign.With(id))
		t.hExpCap = append(t.hExpCap, hExpCap.With(id))
		t.hDown = append(t.hDown, hDown.With(id))
	}
	return t
}

// observeStage folds one stage's per-channel scratch into the counters
// — the deterministic merge point: each channel's step filled scratch[ci],
// the director reduces in channel-index order. Only called when enabled.
func (t *clusterTelemetry) observeStage(scratch []stageData, activePeers int) {
	var msgs, batches, lost, late, served, fault, swaps uint64
	for ci := range scratch {
		s := &scratch[ci]
		msgs += uint64(s.msgs)
		batches += uint64(s.batches)
		lost += uint64(s.lost)
		late += uint64(s.late)
		served += uint64(s.lateServed)
		fault += uint64(s.faultMsgs)
		swaps += uint64(s.viewSwaps)
	}
	if msgs > 0 {
		t.msgs.Add(msgs)
	}
	if batches > 0 {
		t.batches.Add(batches)
	}
	if lost > 0 {
		t.lostMsgs.Add(lost)
	}
	if late > 0 {
		t.lateMsgs.Add(late)
	}
	if served > 0 {
		t.lateServed.Add(served)
	}
	if fault > 0 {
		t.faultMsgs.Add(fault)
	}
	if swaps > 0 {
		t.viewSwaps.Add(swaps)
	}
	t.stages.Inc()
	t.activePeers.Set(float64(activePeers))
}

// observeBoundary refreshes the epoch gauges and counters from the
// just-computed epoch metrics. Safe (no-op) when disabled.
func (t *clusterTelemetry) observeBoundary(m EpochMetrics) {
	t.welfareRatio.Set(m.WelfareRatio)
	t.continuity.Set(m.Continuity)
	t.maxDeficit.Set(m.MaxDeficit)
	t.activePeers.Set(float64(m.ActivePeers))
	t.helpersDown.Set(float64(m.HelpersDown))
	t.epochs.Inc()
	t.moves.Add(uint64(m.Moves))
	t.joins.Add(uint64(m.Joins))
	t.leaves.Add(uint64(m.Leaves))
	t.switches.Add(uint64(m.Switches))
	t.suspected.Add(uint64(m.Suspected))
	t.evictions.Add(uint64(m.Evicted))
	t.readmissions.Add(uint64(m.Readmitted))
}

// observeChannelEpoch refreshes channel ci's epoch gauges from its
// epoch accumulator, just before the boundary resets it. Only called
// when enabled.
func (t *clusterTelemetry) observeChannelEpoch(ci int, a stageData, activePeers int) {
	ratio, cont := 1.0, 1.0
	if a.opt > 0 {
		ratio = a.welfare / a.opt
	}
	if a.played+a.stalled > 0 {
		cont = float64(a.played) / float64(a.played+a.stalled)
	}
	t.chWelfare[ci].Set(ratio)
	t.chContinuity[ci].Set(cont)
	t.chActive[ci].Set(float64(activePeers))
}

// observeProfile publishes the last round's critical-path attribution:
// the cumulative barrier tax, the straggler's lead over the median, and
// one straggler-round tick for the gating channel. Only called when
// enabled and the backend profiles rounds.
func (t *clusterTelemetry) observeProfile(p distsim.RoundProfile, tax float64) {
	t.barrierTax.Set(tax)
	t.stragglerLead.Set(p.LeadRatio)
	t.chStraggler[p.Straggler].Inc()
}

// observeEntityGauges refreshes the post-boundary per-channel deficit/
// pool gauges and the per-helper assignment gauges. caps is the
// boundary's effective expected capacity per helper (fault-honest when
// a plan is set). Runs after reallocate, so it reads the assignment the
// next epoch starts with. Only called when enabled.
func (c *Cluster) observeEntityGauges(caps []float64) {
	t := c.tel
	if c.chSupply == nil {
		c.chSupply = make([]float64, len(c.channels))
	}
	for ci := range c.chSupply {
		c.chSupply[ci] = 0
	}
	for h, ci := range c.assign {
		c.chSupply[ci] += caps[h]
		t.hAssign[h].Set(float64(ci))
		t.hExpCap[h].Set(caps[h])
		down := 0.0
		if len(c.evicted) > 0 && c.evicted[h] {
			down = 1
		}
		t.hDown[h].Set(down)
	}
	for ci := range c.channels {
		deficit := c.demands[ci].Demand - c.chSupply[ci]
		if deficit < 0 {
			deficit = 0
		}
		t.chDeficit[ci].Set(deficit)
		t.chPool[ci].Set(float64(len(c.channels[ci].helperIDs)))
	}
}

// traceFaultWindows emits fault_open/fault_close events for every
// scheduled crash and partition window touching this stage. The plan is
// static, so scanning it per stage is O(windows) and the emission order
// (crashes then partitions, schedule order) is deterministic.
func (c *Cluster) traceFaultWindows() {
	if c.trace == nil || c.faults == nil {
		return
	}
	for _, cr := range c.faults.Crashes {
		if cr.From >= cr.Until {
			continue
		}
		if cr.From == c.stage {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindFaultOpen)
			e.Helper = cr.Helper
			e.Detail = "crash"
			c.trace.Emit(e)
		}
		if cr.Until == c.stage {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindFaultClose)
			e.Helper = cr.Helper
			e.Detail = "crash"
			c.trace.Emit(e)
		}
	}
	for _, w := range c.faults.Partitions {
		if w.From >= w.Until {
			continue
		}
		if w.From == c.stage {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindFaultOpen)
			e.Detail = "partition"
			e = e.WithValue(float64(w.Domain))
			c.trace.Emit(e)
		}
		if w.Until == c.stage {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindFaultClose)
			e.Detail = "partition"
			e = e.WithValue(float64(w.Domain))
			c.trace.Emit(e)
		}
	}
}

// traceViewRefreshes emits one view_refresh event per channel that
// performed refresh swaps this stage, in channel order.
func (c *Cluster) traceViewRefreshes() {
	if c.trace == nil {
		return
	}
	for ci := range c.scratch {
		if n := c.scratch[ci].viewSwaps; n > 0 {
			e := telemetry.Ev(c.stage, c.epoch, telemetry.KindViewRefresh)
			e.Channel = ci
			e = e.WithValue(float64(n))
			c.trace.Emit(e)
		}
	}
}
