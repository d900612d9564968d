package cluster

import (
	"fmt"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/forkjoin"
	"rths/internal/streaming"
)

// memChannel is one live channel's execution state on the shared-memory
// backend. When channels step on the executor, exactly one lane steps a
// channel, so the per-stage output slot needs no synchronization.
type memChannel struct {
	name    string
	bitrate float64
	sys     *core.System
	bufs    []*streaming.Buffer
	last    core.StageResult // most recent stage view (aliases sys buffers)
	err     error
}

// memBackend steps channels as shared-memory core.Systems. Channels never
// share state within a stage, so stepping them on the fork-join executor
// changes only wall-clock time, never results: the fork is derived, not
// configured. Channels fork on min(GOMAXPROCS, channels) lanes behind
// distsim's channel gate (the stage reaches its minimum work), and step
// inline otherwise.
type memBackend struct {
	channels []*memChannel
	factory  core.SelectorFactory
	scale    float64
	startup  float64
	// gate captures GOMAXPROCS at construction, so the execution mode
	// stays stable if something adjusts GOMAXPROCS mid-run. Tests
	// override it to force either side of the gate.
	gate  forkjoin.Gate
	group forkjoin.Group
	out   []stageData // the stage being stepped (valid during step only)
}

func newMemBackend(cfg Config, assign []int, seeds []uint64, scale, startup float64) (*memBackend, error) {
	b := &memBackend{
		factory: cfg.Factory,
		scale:   scale,
		startup: startup,
		gate:    distsim.PoolGate(),
	}
	for ci, spec := range cfg.Channels {
		var pool []core.HelperSpec
		for h, target := range assign {
			if target == ci {
				pool = append(pool, cfg.Helpers[h])
			}
		}
		sys, err := core.New(core.Config{
			NumPeers:      spec.InitialPeers,
			Helpers:       pool,
			Factory:       cfg.Factory,
			Seed:          seeds[ci],
			DemandPerPeer: spec.Bitrate,
			UtilityScale:  scale,
			ViewSize:      cfg.ViewSize,
			ViewRefresh:   cfg.ViewRefresh,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: channel %q: %w", spec.Name, err)
		}
		st := &memChannel{name: spec.Name, bitrate: spec.Bitrate, sys: sys}
		for i := 0; i < spec.InitialPeers; i++ {
			buf, err := streaming.NewBuffer(spec.Bitrate, startup)
			if err != nil {
				return nil, fmt.Errorf("cluster: channel %q buffer: %w", spec.Name, err)
			}
			st.bufs = append(st.bufs, buf)
		}
		b.channels = append(b.channels, st)
	}
	return b, nil
}

// newSelector builds a mid-run viewer's selection policy from the
// configured factory (nil lets AddPeer construct the RTHS default), so
// flash-crowd joiners and channel switchers run the same policy family as
// the initial audience. The action count is the system's NewPeerActions —
// the view bound when partial views are engaged, the pool size otherwise.
func (b *memBackend) newSelector(st *memChannel) (core.Selector, error) {
	if b.factory == nil {
		return nil, nil
	}
	return b.factory(st.sys.NumPeers(), st.sys.NewPeerActions(), b.scale)
}

func (b *memBackend) addPeer(ci int) error {
	st := b.channels[ci]
	sel, err := b.newSelector(st)
	if err != nil {
		return err
	}
	if _, err := st.sys.AddPeer(sel, st.bitrate); err != nil {
		return err
	}
	buf, err := streaming.NewBuffer(st.bitrate, b.startup)
	if err != nil {
		return err
	}
	st.bufs = append(st.bufs, buf)
	return nil
}

func (b *memBackend) removePeer(ci, local int) error {
	st := b.channels[ci]
	if err := st.sys.RemovePeer(local); err != nil {
		return err
	}
	st.bufs = append(st.bufs[:local], st.bufs[local+1:]...)
	return nil
}

func (b *memBackend) addHelper(ci, id int, spec core.HelperSpec) error {
	return b.channels[ci].sys.AddHelper(spec)
}

func (b *memBackend) removeHelper(ci, local, id int) error {
	return b.channels[ci].sys.RemoveHelper(local)
}

// width returns how many lanes step the next stage (1 = inline).
func (b *memBackend) width() int {
	work := 0
	for _, st := range b.channels {
		work += st.sys.NumPeers() * st.sys.NewPeerActions()
	}
	return b.gate.Width(len(b.channels), work)
}

func (b *memBackend) step(out []stageData) error {
	// Lanes, the caller among them, claim the next unstepped channel, so
	// one heavy channel never leaves the other lanes a fixed share of
	// idle time.
	b.out = out
	b.group.Run(len(b.channels), b.width(), b)
	b.out = nil
	for _, st := range b.channels {
		if st.err != nil {
			err := st.err
			st.err = nil
			return fmt.Errorf("cluster: channel %q: %w", st.name, err)
		}
	}
	return nil
}

// Do steps channel ci: the executor's task over a stage's channels.
func (b *memBackend) Do(ci int) { b.channels[ci].step(&b.out[ci]) }

func (b *memBackend) lastResult(ci int) core.StageResult { return b.channels[ci].last }

// eachReply is a no-op: the shared-memory backend has no links, so every
// exchange trivially succeeds and there is no ledger to walk.
func (b *memBackend) eachReply(fn func(helper int, missed bool)) {}

// roundProfile reports no profile: the shared-memory backend has no
// round barrier to attribute time to.
func (b *memBackend) roundProfile() (distsim.RoundProfile, float64, bool) {
	return distsim.RoundProfile{}, 0, false
}

func (b *memBackend) close() error { return nil }

// step advances one channel one stage and fills its per-stage output slot.
// May run on a pool worker; touches only this channel's state.
func (st *memChannel) step(out *stageData) {
	res, err := st.sys.Step()
	if err != nil {
		st.err = err
		return
	}
	st.last = res
	*out = stageData{
		welfare:    res.Welfare,
		opt:        res.OptWelfare,
		serverLoad: res.ServerLoad,
		minDeficit: res.MinDeficit,
		viewSwaps:  res.ViewSwaps,
	}
	for i, b := range st.bufs {
		ok, err := b.Tick(res.Rates[i])
		if err != nil {
			st.err = err
			return
		}
		if ok {
			out.played++
		} else {
			out.stalled++
		}
	}
}

var _ backend = (*memBackend)(nil)
