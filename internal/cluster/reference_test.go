package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/markov"
	"rths/internal/regret"
	"rths/internal/streaming"
	"rths/internal/xrand"
)

// refBackend is the naive reference executor: the cross-check of the
// distsim runtime, written for plainness rather than speed. Each channel
// runs sequentially on its own stream from the channel seed. Its peers
// are regret.Reference learners, which replay their whole history on
// every update instead of decaying lazily in an arena. Membership and
// migration ops apply at once, in call order, and nothing forks. It
// serves only the configs whose results it can reproduce: no faults, no
// detector, perfect links, default RTHS learners and full views.
type refBackend struct {
	channels []*refChannel
	stage    int
	closed   bool
}

// refChannel is one channel: its stream, pool, learners and playout
// buffers, and its last stage.
type refChannel struct {
	name     string
	bitrate  float64
	startup  float64
	scale    float64
	rng      *xrand.Rand
	helpers  []refHelper
	learners []*regret.Reference
	bufs     []*streaming.Buffer
	last     core.StageResult
}

// refHelper is a pool helper: its global id and its bandwidth chain.
type refHelper struct {
	id     int
	levels []float64
	proc   *markov.Process
}

// newRefBackend builds the reference executor for c, or rejects cfg when
// it needs something the reference does not model.
func newRefBackend(c *Cluster, cfg Config, seeds []uint64) (backend, error) {
	switch {
	case cfg.Faults != nil:
		return nil, errors.New("reference: no fault plans")
	case cfg.Detector != nil:
		return nil, errors.New("reference: no failure detector")
	case cfg.Link != nil && cfg.Link != distsim.LinkModel(distsim.Lossy{}):
		return nil, fmt.Errorf("reference: link %#v is not perfect", cfg.Link)
	case cfg.Factory != nil:
		return nil, errors.New("reference: default RTHS learners only")
	case cfg.ViewSize != 0:
		return nil, errors.New("reference: full views only")
	}
	b := &refBackend{}
	for ci, spec := range cfg.Channels {
		ch := &refChannel{
			name:    spec.Name,
			bitrate: spec.Bitrate,
			startup: c.startup,
			scale:   c.scale,
			rng:     xrand.New(seeds[ci]),
		}
		// core splits one stream per helper chain, in global-id order.
		for h, target := range c.assign {
			if target == ci {
				if err := ch.addHelper(h, cfg.Helpers[h]); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < spec.InitialPeers; i++ {
			if err := ch.addPeer(); err != nil {
				return nil, err
			}
		}
		b.channels = append(b.channels, ch)
	}
	return b, nil
}

func (ch *refChannel) addPeer() error {
	l, err := regret.NewReference(regret.Defaults(len(ch.helpers), 1))
	if err != nil {
		return err
	}
	buf, err := streaming.NewBuffer(ch.bitrate, ch.startup)
	if err != nil {
		return err
	}
	ch.learners = append(ch.learners, l)
	ch.bufs = append(ch.bufs, buf)
	return nil
}

// addHelper joins helper id with a fresh chain, built the way core builds
// one: the default switch probability, a one-level chain that never
// moves, and a start state drawn when the spec asks for one.
func (ch *refChannel) addHelper(id int, spec core.HelperSpec) error {
	rng := ch.rng.Split()
	p := spec.SwitchProb
	if p == 0 {
		p = core.DefaultSwitchProb
	}
	n := len(spec.Levels)
	if n == 1 {
		p = 0.5
	}
	chain, err := markov.Sticky(n, p)
	if err != nil {
		return err
	}
	state := spec.InitState
	if state < 0 {
		state = rng.Intn(n)
	}
	ch.helpers = append(ch.helpers, refHelper{id: id, levels: spec.Levels, proc: chain.Start(rng, state)})
	for _, l := range ch.learners {
		l.AddAction()
	}
	return nil
}

func (b *refBackend) addPeer(ci int) error { return b.channels[ci].addPeer() }

func (b *refBackend) removePeer(ci, local int) error {
	ch := b.channels[ci]
	if local < 0 || local >= len(ch.learners) {
		return fmt.Errorf("reference: channel %q has no peer %d", ch.name, local)
	}
	ch.learners = slices.Delete(ch.learners, local, local+1)
	ch.bufs = slices.Delete(ch.bufs, local, local+1)
	return nil
}

func (b *refBackend) addHelper(ci, id int, spec core.HelperSpec) error {
	return b.channels[ci].addHelper(id, spec)
}

func (b *refBackend) removeHelper(ci, local, id int) error {
	ch := b.channels[ci]
	if local < 0 || local >= len(ch.helpers) || ch.helpers[local].id != id {
		return fmt.Errorf("reference: channel %q holds no helper %d at %d", ch.name, id, local)
	}
	if len(ch.helpers) == 1 {
		return fmt.Errorf("reference: channel %q would lose its last helper", ch.name)
	}
	ch.helpers = slices.Delete(ch.helpers, local, local+1)
	for _, l := range ch.learners {
		l.RemoveAction(local)
	}
	return nil
}

func (b *refBackend) step(out []stageData) error {
	if b.closed {
		return errors.New("reference: closed")
	}
	for ci, ch := range b.channels {
		if err := ch.step(b.stage, &out[ci]); err != nil {
			return fmt.Errorf("reference: channel %q: %w", ch.name, err)
		}
	}
	b.stage++
	return nil
}

// step plays one stage of the channel's game from its definition: chains
// move, every peer samples its helper, each helper's capacity is split
// evenly among its peers, and each peer learns from its normalized rate.
func (ch *refChannel) step(stage int, out *stageData) error {
	caps := make([]float64, len(ch.helpers))
	for j := range ch.helpers {
		h := &ch.helpers[j]
		caps[j] = h.levels[h.proc.Step()]
	}
	actions := make([]int, len(ch.learners))
	loads := make([]int, len(ch.helpers))
	for i, l := range ch.learners {
		actions[i] = l.Select(ch.rng)
		loads[actions[i]]++
	}
	rates := make([]float64, len(actions))
	res := core.StageResult{Stage: stage, Actions: actions, Loads: loads, Capacities: caps, Rates: rates}
	demand := 0.0
	for i, a := range actions {
		rates[i] = caps[a] / float64(loads[a])
		res.Welfare += rates[i]
		demand += ch.bitrate
		res.ServerLoad += max(0, ch.bitrate-rates[i])
		if err := ch.learners[i].Update(a, rates[i]/ch.scale); err != nil {
			return err
		}
	}
	// The optimum serves the min(peers, helpers) largest helpers.
	sorted := slices.Clone(caps)
	slices.Sort(sorted)
	slices.Reverse(sorted)
	supply := 0.0
	for j, c := range sorted {
		supply += c
		if j < len(actions) {
			res.OptWelfare += c
		}
	}
	res.MinDeficit = max(0, demand-supply)
	*out = stageData{
		welfare:    res.Welfare,
		opt:        res.OptWelfare,
		serverLoad: res.ServerLoad,
		minDeficit: res.MinDeficit,
	}
	for i, buf := range ch.bufs {
		played, err := buf.Tick(rates[i])
		if err != nil {
			return err
		}
		if played {
			out.played++
		} else {
			out.stalled++
		}
	}
	ch.last = res
	return nil
}

func (b *refBackend) lastResult(ci int) core.StageResult { return b.channels[ci].last }

func (b *refBackend) eachReply(func(helper int, missed bool)) {}

func (b *refBackend) roundProfile() (distsim.RoundProfile, float64, bool) {
	return distsim.RoundProfile{}, 0, false
}

func (b *refBackend) close() error {
	b.closed = true
	return nil
}

// tape wraps a backend and records every stage it steps: each channel's
// stage view, stage data and pool, and every peer's strategy after the
// latest stage (by channel, then peer). It also checks the invariants
// every stage must keep, and fails the step when one breaks.
type tape struct {
	backend
	c          *Cluster
	stages     [][]tapedChannel
	strategies [][][]float64
}

type tapedChannel struct {
	res  core.StageResult
	data stageData
	pool []int // the backend's pool as global helper ids, in local order
}

func (tp *tape) step(out []stageData) error {
	if err := tp.backend.step(out); err != nil {
		return err
	}
	row := make([]tapedChannel, len(out))
	tp.strategies = tp.strategies[:0]
	for ci := range out {
		row[ci] = tapedChannel{res: tp.backend.lastResult(ci).Clone(), data: out[ci]}
		var probs [][]float64
		switch b := tp.backend.(type) {
		case *refBackend:
			for _, h := range b.channels[ci].helpers {
				row[ci].pool = append(row[ci].pool, h.id)
			}
			for _, l := range b.channels[ci].learners {
				probs = append(probs, l.Probabilities())
			}
		case *distBackend:
			row[ci].pool = slices.Clone(b.last.Channels[ci].PoolIDs)
			sys := b.rt.System(ci)
			if sys.LearnerArena().Len() != sys.NumPeers() {
				return fmt.Errorf("channel %d: %d arena slots for %d peers", ci, sys.LearnerArena().Len(), sys.NumPeers())
			}
			for i := 0; i < sys.NumPeers(); i++ {
				probs = append(probs, sys.Selector(i).(*regret.Learner).Probabilities())
			}
		}
		tp.strategies = append(tp.strategies, probs)
	}
	tp.stages = append(tp.stages, row)
	return tp.invariants(row)
}

// invariants checks one stage against the director and the game: the
// director's viewer index (viewerIndexErr); every helper in exactly one
// pool, the pool the director and Assignment name; a strategy per viewer,
// on the simplex; welfare at most the optimum.
func (tp *tape) invariants(row []tapedChannel) error {
	if err := viewerIndexErr(tp.c); err != nil {
		return err
	}
	pools := make([]int, len(tp.c.helpers))
	for ci, ch := range row {
		if want := tp.c.channels[ci].helperIDs; !slices.Equal(ch.pool, want) {
			return fmt.Errorf("channel %d: pool %v, director's %v", ci, ch.pool, want)
		}
		for _, h := range ch.pool {
			pools[h]++
			if tp.c.assign[h] != ci {
				return fmt.Errorf("channel %d holds helper %d, assigned to %d", ci, h, tp.c.assign[h])
			}
		}
		if got, want := len(tp.strategies[ci]), len(tp.c.channels[ci].peerIDs); got != want {
			return fmt.Errorf("channel %d: %d learners for %d viewers", ci, got, want)
		}
		for i, p := range tp.strategies[ci] {
			sum := 0.0
			for _, v := range p {
				if !(v >= 0) {
					return fmt.Errorf("channel %d peer %d: probability %v", ci, i, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("channel %d peer %d: strategy sums to %v", ci, i, sum)
			}
		}
		if ch.res.Welfare > ch.res.OptWelfare*(1+refTol) {
			return fmt.Errorf("channel %d: welfare %v above optimum %v", ci, ch.res.Welfare, ch.res.OptWelfare)
		}
	}
	for h, n := range pools {
		if n != 1 {
			return fmt.Errorf("helper %d sits in %d pools", h, n)
		}
	}
	return nil
}

// viewerIndexErr checks the director's viewer index: viewerIDs strictly
// ascending, with a channel per id in viewerCh, and every id in exactly one
// channel's peerIDs, once, the channel viewerCh names. Each listed peer
// matches a distinct indexed viewer of that channel, and the lists hold
// as many peers as the index, so no viewer is missing either.
func viewerIndexErr(c *Cluster) error {
	if len(c.viewerCh) != len(c.viewerIDs) {
		return fmt.Errorf("%d viewer ids, %d viewer channels", len(c.viewerIDs), len(c.viewerCh))
	}
	for k := 1; k < len(c.viewerIDs); k++ {
		if c.viewerIDs[k-1] >= c.viewerIDs[k] {
			return fmt.Errorf("viewer ids not ascending at %d: %v", k, c.viewerIDs)
		}
	}
	seen := make([]bool, len(c.viewerIDs))
	listed := 0
	for ci, ch := range c.channels {
		for _, id := range ch.peerIDs {
			k, ok := c.viewer(id)
			switch {
			case !ok:
				return fmt.Errorf("channel %d lists viewer %d, missing from the index", ci, id)
			case c.viewerCh[k] != ci:
				return fmt.Errorf("channel %d lists viewer %d, indexed on channel %d", ci, id, c.viewerCh[k])
			case seen[k]:
				return fmt.Errorf("viewer %d listed twice", id)
			}
			seen[k] = true
		}
		listed += len(ch.peerIDs)
	}
	if listed != len(c.viewerIDs) {
		return fmt.Errorf("%d viewers indexed, %d listed by the channels", len(c.viewerIDs), listed)
	}
	return nil
}

// taped returns build with the backend it builds wrapped in a tape, which
// it stores in *tp.
func taped(build newBackend, tp **tape) newBackend {
	return func(c *Cluster, cfg Config, seeds []uint64) (backend, error) {
		b, err := build(c, cfg, seeds)
		if err != nil {
			return nil, err
		}
		*tp = &tape{backend: b, c: c}
		return *tp, nil
	}
}

// refTol is the relative tolerance between distsim and the reference:
// the reference's learners reach the same strategies by a different
// summation order.
const refTol = 1e-12

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= refTol*math.Max(math.Abs(a), math.Abs(b))
}

// twin is a cluster on distsim and a cluster on the reference executor,
// built from one config and driven through the same calls. Each records
// its stages, and the twin compares them stage by stage.
type twin struct {
	dist, ref    *Cluster
	dtape, rtape *tape
	compared     int // stages compared so far
}

func newTwin(t testing.TB, cfg Config) *twin {
	t.Helper()
	w := &twin{}
	var err error
	if w.dist, err = newCluster(cfg, taped(newDistBackend, &w.dtape)); err != nil {
		t.Fatal(err)
	}
	if w.ref, err = newCluster(cfg, taped(newRefBackend, &w.rtape)); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *twin) close() {
	w.dist.Close()
	w.ref.Close()
}

// compareStages checks every stage stepped since the last call: actions
// and loads exactly, capacities, rates and the stage totals within refTol.
func (w *twin) compareStages(t testing.TB) {
	t.Helper()
	if len(w.dtape.stages) != len(w.rtape.stages) {
		t.Fatalf("distsim stepped %d stages, reference %d", len(w.dtape.stages), len(w.rtape.stages))
	}
	for s := w.compared; s < len(w.dtape.stages); s++ {
		for ci := range w.dtape.stages[s] {
			d, r := w.dtape.stages[s][ci], w.rtape.stages[s][ci]
			if err := compareStage(d, r); err != nil {
				t.Fatalf("stage %d channel %d: %v", s, ci, err)
			}
		}
	}
	w.compared = len(w.dtape.stages)
}

func compareStage(d, r tapedChannel) error {
	if d.res.Stage != r.res.Stage {
		return fmt.Errorf("stage index %d vs %d", d.res.Stage, r.res.Stage)
	}
	if !slices.Equal(d.res.Actions, r.res.Actions) {
		return fmt.Errorf("actions differ:\n distsim   %v\n reference %v", d.res.Actions, r.res.Actions)
	}
	if !slices.Equal(d.res.Loads, r.res.Loads) {
		return fmt.Errorf("loads differ:\n distsim   %v\n reference %v", d.res.Loads, r.res.Loads)
	}
	if !slices.EqualFunc(d.res.Capacities, r.res.Capacities, near) {
		return fmt.Errorf("capacities differ:\n distsim   %v\n reference %v", d.res.Capacities, r.res.Capacities)
	}
	if !slices.EqualFunc(d.res.Rates, r.res.Rates, near) {
		return fmt.Errorf("rates differ:\n distsim   %v\n reference %v", d.res.Rates, r.res.Rates)
	}
	if !slices.Equal(d.pool, r.pool) {
		return fmt.Errorf("pools differ: distsim %v, reference %v", d.pool, r.pool)
	}
	for _, f := range []struct {
		name string
		d, r float64
	}{
		{"Welfare", d.res.Welfare, r.res.Welfare},
		{"OptWelfare", d.res.OptWelfare, r.res.OptWelfare},
		{"ServerLoad", d.res.ServerLoad, r.res.ServerLoad},
		{"MinDeficit", d.res.MinDeficit, r.res.MinDeficit},
	} {
		if !near(f.d, f.r) {
			return fmt.Errorf("%s %v vs %v", f.name, f.d, f.r)
		}
	}
	if d.data.played != r.data.played || d.data.stalled != r.data.stalled {
		return fmt.Errorf("played/stalled %d/%d vs %d/%d", d.data.played, d.data.stalled, r.data.played, r.data.stalled)
	}
	return nil
}

// compareLearners checks every peer's strategy after the latest stage
// within refTol. (Ops queued after it are not applied on distsim yet.)
func (w *twin) compareLearners(t testing.TB) {
	t.Helper()
	d, r := w.dtape.strategies, w.rtape.strategies
	for ci := range r {
		if len(d[ci]) != len(r[ci]) {
			t.Fatalf("channel %d: distsim has %d peers, reference %d", ci, len(d[ci]), len(r[ci]))
		}
		for i := range r[ci] {
			if !slices.EqualFunc(d[ci][i], r[ci][i], near) {
				t.Fatalf("channel %d peer %d strategies differ:\n distsim   %v\n reference %v", ci, i, d[ci][i], r[ci][i])
			}
		}
	}
}

// compareEpochs checks two runs' epoch records: integers exactly, floats
// within refTol.
func compareEpochs(t testing.TB, dist, ref []EpochMetrics) {
	t.Helper()
	if len(dist) != len(ref) {
		t.Fatalf("distsim ran %d epochs, reference %d", len(dist), len(ref))
	}
	for e := range dist {
		d, r := dist[e], ref[e]
		ok := near(d.WelfareRatio, r.WelfareRatio) && near(d.MeanServerLoad, r.MeanServerLoad) &&
			near(d.MeanMinDeficit, r.MeanMinDeficit) && near(d.Continuity, r.Continuity) &&
			near(d.MaxDeficit, r.MaxDeficit) && near(d.MeanTimeToRecover, r.MeanTimeToRecover)
		// With the floats matched, every other field must be equal.
		d.WelfareRatio, d.MeanServerLoad, d.MeanMinDeficit = r.WelfareRatio, r.MeanServerLoad, r.MeanMinDeficit
		d.Continuity, d.MaxDeficit, d.MeanTimeToRecover = r.Continuity, r.MaxDeficit, r.MeanTimeToRecover
		if !ok || d != r {
			t.Fatalf("epoch %d diverges:\n distsim   %+v\n reference %+v", e, dist[e], ref[e])
		}
	}
}

// crossCheck runs drive on a distsim cluster and on a reference cluster
// built from cfg and fails t at the first stage, epoch or learner where
// they disagree. It returns the distsim run's epoch records.
func crossCheck(t testing.TB, cfg Config, drive func(c *Cluster, observe func(EpochMetrics)) error) []EpochMetrics {
	t.Helper()
	w := newTwin(t, cfg)
	defer w.close()
	var dist, ref []EpochMetrics
	if err := drive(w.dist, func(m EpochMetrics) { dist = append(dist, m) }); err != nil {
		t.Fatalf("distsim: %v", err)
	}
	if err := drive(w.ref, func(m EpochMetrics) { ref = append(ref, m) }); err != nil {
		t.Fatalf("reference: %v", err)
	}
	w.compareStages(t)
	compareEpochs(t, dist, ref)
	w.compareLearners(t)
	return dist
}

// runFor returns a crossCheck drive that runs n epochs.
func runFor(n int) func(*Cluster, func(EpochMetrics)) error {
	return func(c *Cluster, observe func(EpochMetrics)) error { return c.Run(n, observe) }
}

// channelSystem is channel ci's system on a distsim cluster.
func channelSystem(c *Cluster, ci int) *core.System {
	b := c.backend
	if tp, ok := b.(*tape); ok {
		b = tp.backend
	}
	return b.(*distBackend).rt.System(ci)
}

// The reference serves only the configs whose results it reproduces.
func TestReferenceRejectsUnmodelledConfigs(t *testing.T) {
	lossy, err := distsim.NewLossy(0.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"fault plan", func(cfg *Config) { cfg.Faults = &distsim.FaultPlan{} }},
		{"detector", func(cfg *Config) { cfg.Detector = &DetectorConfig{} }},
		{"lossy link", func(cfg *Config) { cfg.Link = lossy }},
		{"factory", func(cfg *Config) { cfg.Factory = core.LearnerFactory(regret.Defaults(1, 1)) }},
		{"views", func(cfg *Config) { cfg.ViewSize = 8 }},
	} {
		cfg := fourChannelConfig(1, nil)
		tc.set(&cfg)
		if _, err := newCluster(cfg, newRefBackend); err == nil {
			t.Errorf("%s: reference accepted the config", tc.name)
		}
	}
	cfg := fourChannelConfig(1, distsim.Lossy{})
	if _, err := newCluster(cfg, newRefBackend); err != nil {
		t.Fatalf("perfect link: %v", err)
	}
}
