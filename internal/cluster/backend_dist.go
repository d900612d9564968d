package cluster

import (
	"rths/internal/core"
	"rths/internal/distsim"
)

// distBackend executes the channels on the batched message-passing runtime:
// every channel is a manager node, every helper its own node, and a stage
// is one protocol round. Membership and migration calls enqueue ops that
// the managers apply — in call order — at the start of the next round,
// before anything of that round is observed. The tests' reference
// executor applies the same ops at once and must agree stage by stage
// (TestDistsimBackendBitIdentical).
type distBackend struct {
	rt   *distsim.Runtime
	last *distsim.RoundStats // most recent round view (reused by the runtime)
}

func newDistBackend(c *Cluster, cfg Config, seeds []uint64) (backend, error) {
	channels := make([]distsim.ChannelConfig, len(cfg.Channels))
	for ci, spec := range cfg.Channels {
		channels[ci] = distsim.ChannelConfig{
			Name:          spec.Name,
			Seed:          seeds[ci],
			InitialPeers:  spec.InitialPeers,
			DemandPerPeer: spec.Bitrate,
			StartupStages: c.startup,
		}
	}
	rt, err := distsim.New(distsim.Config{
		Channels:     channels,
		Helpers:      cfg.Helpers,
		Assign:       c.assign,
		Factory:      cfg.Factory,
		UtilityScale: c.scale,
		ViewSize:     cfg.ViewSize,
		ViewRefresh:  cfg.ViewRefresh,
		Link:         cfg.Link,
		LinkSeed:     cfg.LinkSeed,
		Faults:       cfg.Faults,
		BatchSizes:   c.tel.batchSizes,
		Spans:        c.spans,
	})
	if err != nil {
		return nil, err
	}
	return &distBackend{rt: rt}, nil
}

func (b *distBackend) addPeer(ci int) error { return b.rt.AddPeer(ci) }

func (b *distBackend) removePeer(ci, local int) error { return b.rt.RemovePeer(ci, local) }

func (b *distBackend) addHelper(ci, id int, spec core.HelperSpec) error {
	return b.rt.AddHelper(ci, id, spec)
}

func (b *distBackend) removeHelper(ci, local, id int) error {
	return b.rt.RemoveHelper(ci, local, id)
}

func (b *distBackend) step(out []stageData) error {
	stats, err := b.rt.StepRound()
	if err != nil {
		return err
	}
	b.last = stats
	for ci := range out {
		ch := &stats.Channels[ci]
		out[ci] = stageData{
			welfare:    ch.Welfare,
			opt:        ch.OptWelfare,
			serverLoad: ch.ServerLoad,
			minDeficit: ch.MinDeficit,
			played:     ch.Played,
			stalled:    ch.Stalled,
			lateServed: ch.LateServed,
			faultMsgs:  ch.FaultMsgs,
			msgs:       ch.Msgs,
			batches:    ch.Batches,
			lost:       ch.LostMsgs,
			late:       ch.LateMsgs,
			viewSwaps:  ch.ViewSwaps,
		}
	}
	return nil
}

// eachReply walks the last round's capacity-reply ledger in channel then
// pool order (the deterministic order the detector's bookkeeping needs).
// A channel that failed mid-round reports no ledger that round.
func (b *distBackend) eachReply(fn func(helper int, missed bool)) {
	if b.last == nil {
		return
	}
	for ci := range b.last.Channels {
		ch := &b.last.Channels[ci]
		for j, id := range ch.PoolIDs {
			fn(id, ch.Missed[j])
		}
	}
}

// roundProfile returns the last round's critical-path attribution and
// the runtime's cumulative barrier tax (ok false until a profiled round
// has run).
func (b *distBackend) roundProfile() (distsim.RoundProfile, float64, bool) {
	if b.last == nil || b.last.Profile == nil {
		return distsim.RoundProfile{}, 0, false
	}
	return *b.last.Profile, b.rt.BarrierTax(), true
}

// lastResult rebuilds the core.StageResult view from the channel's round
// report (the managers run core's exact arithmetic, so the fields map 1:1).
func (b *distBackend) lastResult(ci int) core.StageResult {
	if b.last == nil {
		return core.StageResult{}
	}
	ch := &b.last.Channels[ci]
	return core.StageResult{
		Stage:      b.last.Round,
		Actions:    ch.Actions,
		Loads:      ch.Loads,
		Capacities: ch.Capacities,
		Rates:      ch.Rates,
		Welfare:    ch.Welfare,
		OptWelfare: ch.OptWelfare,
		ServerLoad: ch.ServerLoad,
		MinDeficit: ch.MinDeficit,
	}
}

func (b *distBackend) close() error { return b.rt.Close() }

var _ backend = (*distBackend)(nil)
