package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/streaming"
)

// memChannel is one live channel's execution state on the shared-memory
// backend. When the channel pool runs, exactly one worker steps a
// channel, so the per-stage output slot needs no synchronization.
type memChannel struct {
	name    string
	bitrate float64
	sys     *core.System
	bufs    []*streaming.Buffer
	last    core.StageResult // most recent stage view (aliases sys buffers)
	err     error
}

// poolMinWork is the stage size, in Σ over channels of viewers × actions
// per viewer, from which the memory backend steps channels on its pool.
// A viewer's select and update are O(actions), so the sum is PERF.md's
// per-stage learner cost; below it the fan-out's goroutine wake-ups cost
// more than a second core saves. It is the smallest measured shape where
// two workers won at least 7 of 8 pairs (PERF.md "The channel pool").
const poolMinWork = 16000

// memBackend steps channels as shared-memory core.Systems. Channels never
// share state within a stage, so stepping them on a pool changes only
// wall-clock time, never results: the pool is derived, not configured.
// It runs min(procs, channels) workers when procs > 1 and the stage
// reaches poolMinWork, and steps channels inline otherwise.
type memBackend struct {
	channels []*memChannel
	factory  core.SelectorFactory
	scale    float64
	startup  float64
	// procs is GOMAXPROCS captured at construction, so the execution mode
	// stays stable if something adjusts GOMAXPROCS mid-run; minWork is
	// poolMinWork. Tests override both to force either side of the gate.
	procs   int
	minWork int
}

func newMemBackend(cfg Config, assign []int, seeds []uint64, scale, startup float64) (*memBackend, error) {
	b := &memBackend{
		factory: cfg.Factory,
		scale:   scale,
		startup: startup,
		procs:   runtime.GOMAXPROCS(0),
		minWork: poolMinWork,
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

// poolWorkers returns how many workers step the next stage: 0 (inline)
// unless the gate passes.
func (b *memBackend) poolWorkers() int {
	w := min(b.procs, len(b.channels))
	if w < 2 {
		return 0
	}
	work := 0
	for _, st := range b.channels {
		work += st.sys.NumPeers() * st.sys.NewPeerActions()
	}
	if work < b.minWork {
		return 0
	}
	return w
}

func (b *memBackend) step(out []stageData) error {
	if w := b.poolWorkers(); w > 0 {
		// Workers, the caller among them, claim the next unstepped
		// channel, so one heavy channel never leaves the other workers a
		// fixed share of idle time.
		var next atomic.Int64
		run := func() {
			for ci := int(next.Add(1) - 1); ci < len(b.channels); ci = int(next.Add(1) - 1) {
				b.channels[ci].step(&out[ci])
			}
		}
		var wg sync.WaitGroup
		wg.Add(w - 1)
		for k := 1; k < w; k++ {
			go func() {
				defer wg.Done()
				run()
			}()
		}
		run()
		wg.Wait()
	} else {
		for ci, st := range b.channels {
			st.step(&out[ci])
		}
	}
	for _, st := range b.channels {
		if st.err != nil {
			err := st.err
			st.err = nil
			return fmt.Errorf("cluster: channel %q: %w", st.name, err)
		}
	}
	return nil
}

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
