package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"rths"
	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/markov"
	"rths/internal/regret"
	"rths/internal/telemetry"
	"rths/internal/xrand"
)

// layerWarmup is the number of untimed iterations each layer run starts
// with; the timed ones follow (layerSamples outside short test runs,
// enough that the p99 has ten samples beyond it).
const layerWarmup = 50

// shape is the cluster shape the layer runs reproduce: the traced
// cluster's end state plus the workload's configuration.
type shape struct {
	audiences []int
	pools     []int
	assign    []int
	// largest is the channel with the largest audience; its pool and
	// audience size the core and regret runs.
	largest     int
	helpers     []core.HelperSpec
	viewSize    int
	viewRefresh int
	bitrate     float64
	scale       float64
	switchProb  float64
	zipfS       float64
	link        distsim.LinkModel
	linkSeed    uint64
	faults      *distsim.FaultPlan
}

func shapeOf(c *rths.Cluster, sc rths.ClusterScenario, cfg rths.ClusterConfig) *shape {
	sh := &shape{
		assign:      slices.Clone(c.Assignment()),
		helpers:     cfg.Helpers,
		viewSize:    sc.ViewSize,
		viewRefresh: sc.ViewRefresh,
		bitrate:     sc.Bitrate,
		switchProb:  sc.SwitchProb,
		zipfS:       sc.ZipfS,
		link:        cfg.Link,
		linkSeed:    cfg.LinkSeed,
		faults:      cfg.Faults,
	}
	for ci := 0; ci < c.NumChannels(); ci++ {
		a := c.ChannelAudience(ci)
		sh.audiences = append(sh.audiences, a)
		sh.pools = append(sh.pools, c.ChannelPool(ci))
		if a > sh.audiences[sh.largest] {
			sh.largest = ci
		}
	}
	for _, h := range cfg.Helpers {
		sh.scale = max(sh.scale, slices.Max(h.Levels))
	}
	return sh
}

// pool returns the largest channel's helper specs.
func (sh *shape) pool() []core.HelperSpec {
	var p []core.HelperSpec
	for h, ci := range sh.assign {
		if ci == sh.largest {
			p = append(p, sh.helpers[h])
		}
	}
	return p
}

// m is the action count of an average viewer's learner: the
// audience-weighted mean over channels of the pool size, capped by the
// view size.
func (sh *shape) m() int {
	var weighted, viewers int
	for ci, a := range sh.audiences {
		m := sh.pools[ci]
		if sh.viewSize > 0 && sh.viewSize < m {
			m = sh.viewSize
		}
		weighted += a * m
		viewers += a
	}
	return max(1, int(math.Round(float64(weighted)/float64(viewers))))
}

// runLayers drives core, regret, markov and distsim directly at the
// shape and reports their per-layer metrics.
func runLayers(sh *shape, w workload, seed uint64, samples int, ops *counter, ms map[string]metric) {
	r := xrand.New(seed)
	steps := []func(*shape, *xrand.Rand, int, *counter, map[string]metric) error{coreLayer, regretLayer, markovLayer, distsimLayer}
	for _, step := range steps {
		if err := step(sh, r.Split(), samples, ops, ms); err != nil {
			ops.fail("%s layer run: %v", w.name, err)
		}
	}
}

func elapsed(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

// coreLayer runs the largest channel as a core.System through the
// split-phase stage calls, with one peer join/leave and one helper
// add/remove between stages.
func coreLayer(sh *shape, r *xrand.Rand, samples int, ops *counter, ms map[string]metric) error {
	pool := sh.pool()
	n := sh.audiences[sh.largest]
	sys, err := core.New(core.Config{
		NumPeers:      n,
		Helpers:       pool,
		Seed:          r.Split().Uint64(),
		DemandPerPeer: sh.bitrate,
		UtilityScale:  sh.scale,
		ViewSize:      sh.viewSize,
		ViewRefresh:   sh.viewRefresh,
	})
	if err != nil {
		return err
	}
	sel := newTiming("core.select", "ns", 1, samples)
	fin := newTiming("core.finish", "ns", 1, samples)
	joinLeave := newTiming("core.join_leave", "us", 1e3, samples)
	helperChurn := newTiming("core.helper_add_remove", "us", 1e3, samples)
	levels := make([][]float64, 0, len(pool)+1)
	caps := make([]float64, 0, len(pool)+1)
	for it := 0; it < layerWarmup+samples; it++ {
		ops.beat()
		timed := it >= layerWarmup
		levels, caps = levels[:0], caps[:0]
		for j := 0; j < sys.NumHelpers(); j++ {
			levels = append(levels, sys.HelperLevels(j))
		}
		t0 := time.Now()
		if _, _, err := sys.SelectStage(); err != nil {
			return err
		}
		dSel := elapsed(t0)
		for j, lv := range levels {
			p := sys.HelperProcess(j)
			p.Step()
			caps = append(caps, lv[p.State()])
		}
		t0 = time.Now()
		if _, err := sys.FinishStage(caps); err != nil {
			return err
		}
		dFin := elapsed(t0)
		t0 = time.Now()
		if _, err := sys.AddPeer(nil, sh.bitrate); err != nil {
			return err
		}
		if err := sys.RemovePeer(r.Intn(sys.NumPeers())); err != nil {
			return err
		}
		dJoin := elapsed(t0)
		t0 = time.Now()
		if err := sys.AddHelper(pool[0]); err != nil {
			return err
		}
		if err := sys.RemoveHelper(r.Intn(sys.NumHelpers())); err != nil {
			return err
		}
		dHelper := elapsed(t0)
		if timed {
			sel.add(dSel / float64(n))
			fin.add(dFin / float64(n))
			joinLeave.add(dJoin)
			helperChurn.add(dHelper)
		}
	}
	sel.report(ms, "core.select_ns_per_peer", "core.select_ns_per_peer_tail")
	fin.report(ms, "core.finish_ns_per_peer", "core.finish_ns_per_peer_tail")
	joinLeave.report(ms, "core.join_leave_us", "core.join_leave_us_tail")
	helperChurn.report(ms, "core.helper_add_remove_us", "core.helper_add_remove_us_tail")
	return nil
}

// regretLayer sweeps Select then Update over learners resident in one
// regret.Arena at the workload's m, sized like the largest channel.
func regretLayer(sh *shape, r *xrand.Rand, samples int, ops *counter, ms map[string]metric) error {
	m, n := sh.m(), sh.audiences[sh.largest]
	arena := regret.NewArena(m)
	learners := make([]*regret.Learner, n)
	for i := range learners {
		l, err := regret.New(regret.Defaults(m, 1))
		if err != nil {
			return err
		}
		arena.Adopt(l)
		learners[i] = l
	}
	actions := make([]int, n)
	utils := make([]float64, n)
	sel := newTiming("regret.select", "ns", 1, samples)
	upd := newTiming("regret.update", "ns", 1, samples)
	for it := 0; it < layerWarmup+samples; it++ {
		ops.beat()
		for i := range utils {
			utils[i] = r.Float64()
		}
		t0 := time.Now()
		for i, l := range learners {
			actions[i] = l.Select(r)
		}
		dSel := elapsed(t0)
		t0 = time.Now()
		for i, l := range learners {
			if err := l.Update(actions[i], utils[i]); err != nil {
				return err
			}
		}
		dUpd := elapsed(t0)
		if it >= layerWarmup {
			sel.add(dSel / float64(n))
			upd.add(dUpd / float64(n))
		}
	}
	sel.report(ms, "regret.select_ns", "regret.select_ns_tail")
	upd.report(ms, "regret.update_ns", "regret.update_ns_tail")
	ms["regret.slot_bytes"] = metric{float64(arena.SlotBytes()), "B"}
	ms["regret.m"] = metric{float64(m), "count"}
	return nil
}

// markovLayer steps every viewer's channel through the workload's
// StickyWeighted switching chain.
func markovLayer(sh *shape, r *xrand.Rand, samples int, ops *counter, ms map[string]metric) error {
	weights := make([]float64, len(sh.audiences))
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -sh.zipfS)
	}
	chain, err := markov.StickyWeighted(weights, sh.switchProb)
	if err != nil {
		return err
	}
	var states []int
	for ci, a := range sh.audiences {
		for range a {
			states = append(states, ci)
		}
	}
	step := newTiming("markov.switch", "ns", 1, samples)
	for it := 0; it < layerWarmup+samples; it++ {
		ops.beat()
		t0 := time.Now()
		for v, s := range states {
			states[v] = chain.Step(r, s)
		}
		if d := elapsed(t0); it >= layerWarmup {
			step.add(d / float64(len(states)))
		}
	}
	step.report(ms, "markov.switch_ns_per_viewer", "markov.switch_ns_per_viewer_tail")
	return nil
}

// distsimLayer runs the shape as a distsim deployment with round spans
// on: the traced end state's assignment and audiences, and for
// faults-live the workload's link model and fault plan.
func distsimLayer(sh *shape, r *xrand.Rand, samples int, ops *counter, ms map[string]metric) error {
	chs := make([]distsim.ChannelConfig, len(sh.audiences))
	for ci, a := range sh.audiences {
		chs[ci] = distsim.ChannelConfig{
			Name:          fmt.Sprintf("ch%d", ci),
			Seed:          r.Split().Uint64(),
			InitialPeers:  a,
			DemandPerPeer: sh.bitrate,
			StartupStages: 2,
		}
	}
	rt, err := distsim.New(distsim.Config{
		Channels:     chs,
		Helpers:      sh.helpers,
		Assign:       sh.assign,
		UtilityScale: sh.scale,
		ViewSize:     sh.viewSize,
		ViewRefresh:  sh.viewRefresh,
		Link:         sh.link,
		LinkSeed:     sh.linkSeed,
		Faults:       sh.faults,
		Spans:        telemetry.NewRecorder(samples),
	})
	if err != nil {
		return err
	}
	round := newTiming("distsim.round", "us", 1e3, samples)
	msgs := 0
	for it := 0; it < layerWarmup+samples; it++ {
		ops.beat()
		t0 := time.Now()
		st, err := rt.StepRound()
		d := elapsed(t0)
		if err != nil {
			rt.Close()
			return err
		}
		if it >= layerWarmup {
			round.add(d)
			msgs += st.Msgs
		}
	}
	tax := rt.BarrierTax()
	if err := rt.Close(); err != nil {
		return err
	}
	round.report(ms, "distsim.round_us_p50", "distsim.round_us_p99")
	ms["distsim.msgs_per_round"] = metric{float64(msgs) / float64(samples), "count"}
	ms["distsim.barrier_tax"] = metric{tax, "1"}
	return nil
}
