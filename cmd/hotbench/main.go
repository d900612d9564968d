// Command hotbench measures the simulator's hot-path cost model — stage
// throughput, per-stage allocations, and the learner's per-update cost
// across action-set sizes — and writes the results to BENCH_hotpath.json.
// Run it before and after a performance change and diff the JSON; PERF.md
// documents how to read the numbers. The measurement loops are plain timed
// runs (not testing.B), so the tool works as a standalone binary in CI and
// keeps a machine-readable perf trajectory across PRs.
//
// Usage:
//
//	hotbench [-out BENCH_hotpath.json] [-stages 200] [-repeat 1] [-full]
//	hotbench -repeat 3 -baseline BENCH_hotpath.json -tolerance 0.20
//
// -full adds the N=100k population and the 100-channel cluster (slow;
// several seconds per scenario). -baseline compares the fresh measurements
// against a committed report and exits non-zero if any like-named
// scenario's throughput regressed by more than -tolerance — the CI gate
// that keeps the perf trajectory honest. Gate runs should use -repeat 3:
// scheduler noise only slows a run down, so best-of-N is the stable
// statistic to compare. Repeated runs also record each row's min/mean/max
// spread (ns/stage and allocs/stage) so the report shows how noisy the
// box was; the gate itself still compares only the min.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"rths"
	"rths/internal/xrand"
)

// Report is the schema of BENCH_hotpath.json.
type Report struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Timestamp  string           `json:"timestamp"`
	Stages     int              `json:"stages_per_scenario"`
	Scenarios  []ScenarioResult `json:"scenarios"`
	Cluster    []ClusterResult  `json:"cluster"`
	Distsim    []ScenarioResult `json:"distsim"`
	Learner    []LearnerResult  `json:"learner_update"`
}

// ClusterResult is one multi-channel cluster measurement (stage loop plus
// re-allocation boundaries, scenario events included). NsPerStage is the
// fastest of the -repeat rounds (the gate statistic); the mean/max fields
// record the spread across rounds. GOMAXPROCS records the processor count
// the row was measured under: the cluster derives its manager fork from
// it.
type ClusterResult struct {
	Name             string  `json:"name"`
	Channels         int     `json:"channels"`
	Peers            int     `json:"peers"`
	Helpers          int     `json:"helpers"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	FullOnly         bool    `json:"full_run_only,omitempty"`
	Stages           int     `json:"stages"`
	NsPerStage       float64 `json:"ns_per_stage"`
	NsPerStageMean   float64 `json:"ns_per_stage_mean"`
	NsPerStageMax    float64 `json:"ns_per_stage_max"`
	StagesPerSec     float64 `json:"stages_per_sec"`
	PeerStagesPerSec float64 `json:"peer_stages_per_sec"`
}

// ScenarioResult is one stage-engine measurement. NsPerStage and
// AllocsPerStage are per-round minima (the gate and the allocation pin);
// the mean/max fields record the spread across the -repeat rounds.
// GOMAXPROCS records the processor count the row was measured under.
type ScenarioResult struct {
	Name               string  `json:"name"`
	Peers              int     `json:"peers"`
	Helpers            int     `json:"helpers"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	ViewSize           int     `json:"view_size,omitempty"`
	FullOnly           bool    `json:"full_run_only,omitempty"`
	Stages             int     `json:"stages"`
	NsPerStage         float64 `json:"ns_per_stage"`
	NsPerStageMean     float64 `json:"ns_per_stage_mean"`
	NsPerStageMax      float64 `json:"ns_per_stage_max"`
	StagesPerSec       float64 `json:"stages_per_sec"`
	PeerStagesPerSec   float64 `json:"peer_stages_per_sec"`
	AllocsPerStage     float64 `json:"allocs_per_stage"`
	AllocsPerStageMean float64 `json:"allocs_per_stage_mean"`
	AllocsPerStageMax  float64 `json:"allocs_per_stage_max"`
	BytesPerStage      float64 `json:"bytes_per_stage"`
}

// LearnerResult is one learner-scaling measurement (O(m) check: ns/update
// should grow linearly in m, not quadratically). NsPerOp and AllocsPerOp
// are per-round minima; the mean/max fields record the spread.
type LearnerResult struct {
	M               int     `json:"m"`
	NsPerOp         float64 `json:"ns_per_update"`
	NsPerOpMean     float64 `json:"ns_per_update_mean"`
	NsPerOpMax      float64 `json:"ns_per_update_max"`
	AllocsPerOp     float64 `json:"allocs_per_update"`
	AllocsPerOpMean float64 `json:"allocs_per_update_mean"`
	AllocsPerOpMax  float64 `json:"allocs_per_update_max"`
}

type scenarioSpec struct {
	name     string
	peers    int
	helpers  int
	viewSize int  // 0 = full helper views
	fullOnly bool // measured only with -full; excluded from the gate
}

func defaultScenarios(full bool) []scenarioSpec {
	specs := []scenarioSpec{
		{name: "small-seq", peers: 10, helpers: 4},
		{name: "mid-seq", peers: 1000, helpers: 16},
		{name: "large-seq", peers: 20000, helpers: 16},
		// The partial-view acceptance pair: the same H=256 pool with
		// full-view learners (O(H²) state, O(H) updates) and with
		// ViewSize=16 candidate views (O(v²)/O(v)). The v=16 row must stay
		// far ahead of the full row on ns/stage, and the full row keeps the
		// large-m cost model honest in the gate.
		{name: "views-256h-full", peers: 128, helpers: 256},
		{name: "views-256h-v16", peers: 128, helpers: 256, viewSize: 16},
	}
	if full {
		specs = append(specs, scenarioSpec{name: "xlarge-seq", peers: 100000, helpers: 16, fullOnly: true})
	}
	return specs
}

// measureScenario runs `stages` steady-state stages of the given system
// shape and reports per-stage time and allocation counts (construction and
// warmup excluded).
func measureScenario(spec scenarioSpec, stages int) (ScenarioResult, error) {
	helpers := make([]rths.HelperSpec, spec.helpers)
	for j := range helpers {
		helpers[j] = rths.DefaultHelperSpec()
	}
	sys, err := rths.NewSystem(rths.SystemConfig{
		NumPeers: spec.peers,
		Helpers:  helpers,
		Seed:     1,
		ViewSize: spec.viewSize,
	})
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	if err := sys.Run(8, nil); err != nil {
		return ScenarioResult{}, fmt.Errorf("%s warmup: %w", spec.name, err)
	}
	// One throwaway GC + short run before the measured window: the first
	// collection over a freshly grown heap can trigger one-time lazy
	// runtime initialization (a single ~32B malloc) during the stages that
	// follow it, which would otherwise read as a phantom engine allocation.
	runtime.GC()
	if err := sys.Run(2, nil); err != nil {
		return ScenarioResult{}, fmt.Errorf("%s warmup: %w", spec.name, err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := sys.Run(stages, nil); err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(stages)
	return ScenarioResult{
		Name:             spec.name,
		Peers:            spec.peers,
		Helpers:          spec.helpers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ViewSize:         spec.viewSize,
		FullOnly:         spec.fullOnly,
		Stages:           stages,
		NsPerStage:       ns,
		StagesPerSec:     1e9 / ns,
		PeerStagesPerSec: 1e9 / ns * float64(spec.peers),
		AllocsPerStage:   float64(after.Mallocs-before.Mallocs) / float64(stages),
		BytesPerStage:    float64(after.TotalAlloc-before.TotalAlloc) / float64(stages),
	}, nil
}

type clusterSpec struct {
	name      string
	channels  int
	peers     int
	helpers   int
	distsim   bool // run behind a perfect link (zero loss) instead of none
	churn     bool // replay a generated churn trace through Cluster.Replay
	faults    bool // run under the ClusterFaults lossy-link + fault plan
	telemetry bool // attach a live metrics registry + discarded trace
	series    bool // emit periodic per-entity series trace records
	fullOnly  bool // measured only with -full; excluded from the gate
}

func defaultClusterScenarios(full bool) []clusterSpec {
	specs := []clusterSpec{
		{name: "cluster-small-seq", channels: 8, peers: 240, helpers: 16},
		{name: "cluster-mid-seq", channels: 20, peers: 1000, helpers: 40},
		// The link pair: the same 4-channel, N=1k deployment with no link
		// (-seq) and behind a perfect link (-distsim), which adjudicates
		// every message but drops, delays and draws nothing.
		{name: "cluster-4ch-seq", channels: 4, peers: 1000, helpers: 16},
		{name: "cluster-4ch-distsim", channels: 4, peers: 1000, helpers: 16, distsim: true},
		// The churn-replay pair: the same deployment driven by a generated
		// Poisson/Zipf viewer trace through Cluster.Replay (joins, leaves
		// and zaps applied per stage, re-allocation epochs included), with
		// no link and behind a perfect one. Event application rides on top
		// of the stage loop, so these rows bound the replay overhead
		// against cluster-4ch-*.
		{name: "churn-replay-4ch-seq", channels: 4, peers: 1000, helpers: 16, churn: true},
		{name: "churn-replay-4ch-distsim", channels: 4, peers: 1000, helpers: 16, distsim: true, churn: true},
		// The fault-plan row: the runtime under the ClusterFaults
		// preset's lossy queueing links, helper crash, regional partition
		// and failure detector. Bounds the fault adjudication + detector
		// overhead against cluster-4ch-distsim (same shape, clean links).
		{name: "cluster-faults-distsim", channels: 4, peers: 1000, helpers: 16, faults: true},
		// The same fault row with the telemetry subsystem live: a populated
		// metrics registry plus a lifecycle tracer writing to io.Discard.
		// Gated like every sequential row, so the instrument overhead vs
		// cluster-faults-distsim stays honest (the budget is a few percent).
		{name: "cluster-faults-telemetry", channels: 4, peers: 1000, helpers: 16, faults: true, telemetry: true},
		// The dimensional row: everything cluster-faults-telemetry carries
		// plus the per-channel/per-helper labeled gauges, round-span
		// profiling and periodic series trace records. Bounds the full
		// observability stack; the budget vs cluster-faults-distsim is ~5%.
		{name: "cluster-faults-spans", channels: 4, peers: 1000, helpers: 16, faults: true, telemetry: true, series: true},
	}
	if full {
		specs = append(specs, clusterSpec{
			name: "cluster-scale", channels: 100, peers: 10000, helpers: 150,
			fullOnly: true,
		})
	}
	return specs
}

// measureCluster runs `stages` steady-state stages of the multi-channel
// cluster runtime (Markov switching on, flash crowds off) including the
// epoch re-allocation boundaries that fall inside the window. Churn
// scenarios replay a generated workload over the measured window (trace
// generation itself is excluded from the timing).
func measureCluster(spec clusterSpec, stages int) (ClusterResult, error) {
	sc := rths.ClusterSmall()
	if spec.faults {
		// Keep the fault schedule, link model and detector; the shape
		// overrides below make the row comparable to cluster-4ch-distsim.
		sc = rths.ClusterFaults()
	}
	sc.Channels, sc.TotalPeers, sc.Helpers = spec.channels, spec.peers, spec.helpers
	sc.EpochStages = 25
	sc.FlashPeers = 0
	if spec.churn {
		// ~4 arrivals/stage against an N=1k audience: every stage applies
		// churn events, while the short lifetime caps the steady-state
		// replayed audience at ~200 extra viewers so the row stays
		// comparable to its churn-free sibling.
		sc.ChurnArrivalRate = 4
		sc.ChurnMeanLifetime = 50
		sc.ChurnSwitchRate = 0.002
		sc.ChurnSeed = 7
	}
	cfg, err := sc.Build()
	if err != nil {
		return ClusterResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	if spec.distsim {
		// A perfect link drops, delays and draws nothing, so the row runs
		// its -seq twin's trajectory.
		cfg.Link = rths.LossyLink{}
	}
	if spec.telemetry {
		cfg.Metrics = rths.NewTelemetryRegistry()
		cfg.Trace = rths.NewTracer(io.Discard)
	}
	if spec.series {
		cfg.SeriesEvery = 10
	}
	c, err := rths.NewCluster(cfg)
	if err != nil {
		return ClusterResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	defer c.Close()
	if _, err := c.RunEpoch(); err != nil { // warmup epoch
		return ClusterResult{}, fmt.Errorf("%s warmup: %w", spec.name, err)
	}
	epochs := (stages + sc.EpochStages - 1) / sc.EpochStages
	measured := epochs * sc.EpochStages
	var workload *rths.Workload
	if spec.churn {
		sc.Epochs = epochs // horizon = the measured window
		workload, err = sc.Workload()
		if err != nil {
			return ClusterResult{}, fmt.Errorf("%s workload: %w", spec.name, err)
		}
	}
	start := time.Now()
	if workload != nil {
		err = c.Replay(workload, measured, nil)
	} else {
		err = c.Run(epochs, nil)
	}
	if err != nil {
		return ClusterResult{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	elapsed := time.Since(start)
	ns := float64(elapsed.Nanoseconds()) / float64(measured)
	return ClusterResult{
		Name:             spec.name,
		Channels:         spec.channels,
		Peers:            spec.peers,
		Helpers:          spec.helpers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		FullOnly:         spec.fullOnly,
		Stages:           measured,
		NsPerStage:       ns,
		StagesPerSec:     1e9 / ns,
		PeerStagesPerSec: 1e9 / ns * float64(spec.peers),
	}, nil
}

// measureDistsim runs `stages` steady-state rounds of the batched
// message-passing runtime on a single-channel deployment shaped exactly
// like the mid-seq stage-engine scenario, so the two rows compare
// directly: the distsim ns/stage must stay within ~5x of mid-seq's (the
// acceptance bound the batching earns — the per-peer-send runtime it
// replaced was orders of magnitude off).
func measureDistsim(name string, peers, helpers, stages int) (ScenarioResult, error) {
	specs := make([]rths.HelperSpec, helpers)
	for j := range specs {
		specs[j] = rths.DefaultHelperSpec()
	}
	rt, err := rths.NewDistsim(rths.DistsimConfig{
		Channels: []rths.DistsimChannelConfig{{Name: name, Seed: 1, InitialPeers: peers}},
		Helpers:  specs,
		Assign:   make([]int, helpers),
	})
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s: %w", name, err)
	}
	defer rt.Close()
	for k := 0; k < 8; k++ { // warmup (includes node spawn)
		if _, err := rt.StepRound(); err != nil {
			return ScenarioResult{}, fmt.Errorf("%s warmup: %w", name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for k := 0; k < stages; k++ {
		if _, err := rt.StepRound(); err != nil {
			return ScenarioResult{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(stages)
	return ScenarioResult{
		Name:             name,
		Peers:            peers,
		Helpers:          helpers,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Stages:           stages,
		NsPerStage:       ns,
		StagesPerSec:     1e9 / ns,
		PeerStagesPerSec: 1e9 / ns * float64(peers),
		AllocsPerStage:   float64(after.Mallocs-before.Mallocs) / float64(stages),
		BytesPerStage:    float64(after.TotalAlloc-before.TotalAlloc) / float64(stages),
	}, nil
}

// measureLearner times the standalone Select+Update cycle at action-set
// size m — the O(m) scaling evidence for the lazy-decay rewrite.
func measureLearner(m, iters int) (LearnerResult, error) {
	l, err := rths.NewLearner(rths.DefaultLearnerConfig(m, 1))
	if err != nil {
		return LearnerResult{}, err
	}
	r := xrand.New(1)
	for i := 0; i < 256; i++ { // warmup
		if err := l.Update(l.Select(r), 0.5); err != nil {
			return LearnerResult{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := l.Update(l.Select(r), 0.5); err != nil {
			return LearnerResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return LearnerResult{
		M:           m,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
	}, nil
}

// buildReport runs every measurement; split from main so the test can
// exercise the full pipeline with a trimmed budget. repeat > 1 runs the
// whole measurement set that many times in interleaved rounds and keeps
// each scenario's fastest round as the row — scheduler and frequency noise
// only ever slows a measurement down, and interleaving spreads every
// scenario's repeats across the full wall-clock window so slow minutes
// cannot skew the *relative* shape the regression gate normalizes against.
// The discarded rounds are not thrown away entirely: every row records the
// min/mean/max spread of its ns and allocs figures across the rounds.
func buildReport(stages, repeat int, full bool) (*Report, error) {
	if repeat < 1 {
		repeat = 1
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Stages:     stages,
	}
	learnerIters := stages * 500
	if learnerIters > 200000 {
		learnerIters = 200000
	}
	learnerMs := []int{4, 32, 256}
	for round := 0; round < repeat; round++ {
		for i, spec := range defaultScenarios(full) {
			res, err := measureScenario(spec, stages)
			if err != nil {
				return nil, err
			}
			rep.Scenarios = mergeScenario(rep.Scenarios, round, i, res)
		}
		for i, spec := range defaultClusterScenarios(full) {
			res, err := measureCluster(spec, stages)
			if err != nil {
				return nil, err
			}
			rep.Cluster = mergeCluster(rep.Cluster, round, i, res)
		}
		{
			res, err := measureDistsim("distsim-1ch-1k", 1000, 16, stages)
			if err != nil {
				return nil, err
			}
			rep.Distsim = mergeScenario(rep.Distsim, round, 0, res)
		}
		for i, m := range learnerMs {
			res, err := measureLearner(m, learnerIters)
			if err != nil {
				return nil, err
			}
			rep.Learner = mergeLearner(rep.Learner, round, i, res)
		}
	}
	finishSpreads(rep, repeat)
	return rep, nil
}

// The merge functions fold one round's measurement into the accumulator:
// round 0 appends, later rounds keep the per-row minima as the headline
// figures (NsPerStage and the throughputs derived from it are what the
// gate compares; AllocsPerStage is what the allocation budget pins) while
// the *Mean fields accumulate running sums — finishSpreads divides them by
// the round count — and the *Max fields track the slowest round.

func mergeScenario(acc []ScenarioResult, round, i int, res ScenarioResult) []ScenarioResult {
	if round == 0 {
		res.NsPerStageMean, res.NsPerStageMax = res.NsPerStage, res.NsPerStage
		res.AllocsPerStageMean, res.AllocsPerStageMax = res.AllocsPerStage, res.AllocsPerStage
		return append(acc, res)
	}
	row := &acc[i]
	row.NsPerStageMean += res.NsPerStage
	row.NsPerStageMax = math.Max(row.NsPerStageMax, res.NsPerStage)
	row.AllocsPerStageMean += res.AllocsPerStage
	row.AllocsPerStageMax = math.Max(row.AllocsPerStageMax, res.AllocsPerStage)
	row.AllocsPerStage = math.Min(row.AllocsPerStage, res.AllocsPerStage)
	if res.NsPerStage < row.NsPerStage {
		row.NsPerStage = res.NsPerStage
		row.StagesPerSec = res.StagesPerSec
		row.PeerStagesPerSec = res.PeerStagesPerSec
		row.BytesPerStage = res.BytesPerStage
	}
	return acc
}

func mergeCluster(acc []ClusterResult, round, i int, res ClusterResult) []ClusterResult {
	if round == 0 {
		res.NsPerStageMean, res.NsPerStageMax = res.NsPerStage, res.NsPerStage
		return append(acc, res)
	}
	row := &acc[i]
	row.NsPerStageMean += res.NsPerStage
	row.NsPerStageMax = math.Max(row.NsPerStageMax, res.NsPerStage)
	if res.NsPerStage < row.NsPerStage {
		row.NsPerStage = res.NsPerStage
		row.StagesPerSec = res.StagesPerSec
		row.PeerStagesPerSec = res.PeerStagesPerSec
	}
	return acc
}

func mergeLearner(acc []LearnerResult, round, i int, res LearnerResult) []LearnerResult {
	if round == 0 {
		res.NsPerOpMean, res.NsPerOpMax = res.NsPerOp, res.NsPerOp
		res.AllocsPerOpMean, res.AllocsPerOpMax = res.AllocsPerOp, res.AllocsPerOp
		return append(acc, res)
	}
	row := &acc[i]
	row.NsPerOpMean += res.NsPerOp
	row.NsPerOpMax = math.Max(row.NsPerOpMax, res.NsPerOp)
	row.AllocsPerOpMean += res.AllocsPerOp
	row.AllocsPerOpMax = math.Max(row.AllocsPerOpMax, res.AllocsPerOp)
	row.AllocsPerOp = math.Min(row.AllocsPerOp, res.AllocsPerOp)
	if res.NsPerOp < row.NsPerOp {
		row.NsPerOp = res.NsPerOp
	}
	return acc
}

// finishSpreads turns the running sums accumulated in the *Mean fields
// into true means over the repeat rounds.
func finishSpreads(rep *Report, repeat int) {
	n := float64(repeat)
	for i := range rep.Scenarios {
		rep.Scenarios[i].NsPerStageMean /= n
		rep.Scenarios[i].AllocsPerStageMean /= n
	}
	for i := range rep.Cluster {
		rep.Cluster[i].NsPerStageMean /= n
	}
	for i := range rep.Distsim {
		rep.Distsim[i].NsPerStageMean /= n
		rep.Distsim[i].AllocsPerStageMean /= n
	}
	for i := range rep.Learner {
		rep.Learner[i].NsPerOpMean /= n
		rep.Learner[i].AllocsPerOpMean /= n
	}
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports returns one line per gated scenario whose throughput
// regressed by more than tolerance (a fraction, e.g. 0.2 = 20%) relative
// to the baseline.
//
// The comparison is *normalized*: each run's scenarios are divided by the
// geometric mean over the matched set before comparing, which cancels the
// overall machine-speed factor (a different CI runner, a throttled or
// contended box) and gates only the relative shape of the cost model — a
// regression specific to one path shows up, a uniformly slower machine
// does not.
//
// Name mismatches are hard failures, not skips: a fresh scenario missing
// from the baseline, or a baseline scenario no longer measured, means a
// rename or removal silently disabled that scenario's regression gate —
// the failure message says to regenerate the committed baseline in the
// same change that renames the scenario. Rows marked full_run_only are
// outside the gate on both sides, so a -full measurement run can still be
// gated against the standard committed baseline, and a baseline
// regenerated with -full still gates a standard CI run.
func compareReports(fresh, baseline *Report, tolerance float64) []string {
	index := func(rep *Report) map[string]float64 {
		out := make(map[string]float64)
		for _, s := range rep.Scenarios {
			if !s.FullOnly {
				out[s.Name] = s.PeerStagesPerSec
			}
		}
		for _, s := range rep.Cluster {
			if !s.FullOnly {
				out[s.Name] = s.PeerStagesPerSec
			}
		}
		for _, s := range rep.Distsim {
			if !s.FullOnly {
				out[s.Name] = s.PeerStagesPerSec
			}
		}
		return out
	}
	base, cur := index(baseline), index(fresh)
	var fails []string
	var matched []string
	for name, perf := range cur {
		want, ok := base[name]
		if !ok {
			fails = append(fails, fmt.Sprintf(
				"%s: not in the baseline — its gate is disabled; regenerate the committed BENCH_hotpath.json alongside the scenario change", name))
			continue
		}
		if want > 0 && perf > 0 {
			matched = append(matched, name)
		}
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			fails = append(fails, fmt.Sprintf(
				"%s: in the baseline but not measured — a renamed or retired scenario must regenerate the committed BENCH_hotpath.json", name))
		}
	}
	sort.Strings(fails)
	if len(matched) < 2 {
		// Normalization needs at least two rows to say anything.
		return fails
	}
	sort.Strings(matched)
	geomean := func(vals map[string]float64) float64 {
		sum := 0.0
		for _, name := range matched {
			sum += math.Log(vals[name])
		}
		return math.Exp(sum / float64(len(matched)))
	}
	gBase, gCur := geomean(base), geomean(cur)
	for _, name := range matched {
		rel := (cur[name] / gCur) / (base[name] / gBase)
		if rel < 1-tolerance {
			fails = append(fails, fmt.Sprintf(
				"%s: %.0f peer-stages/sec vs baseline %.0f (normalized %.1f%% below baseline shape, tolerance %.0f%%)",
				name, cur[name], base[name], 100*(1-rel), 100*tolerance))
		}
	}
	return fails
}

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "output path for the JSON report")
	stages := flag.Int("stages", 200, "steady-state stages measured per scenario")
	full := flag.Bool("full", false, "include the N=100k and 100-channel scenarios (slow)")
	repeat := flag.Int("repeat", 1, "measure each scenario N times and keep the fastest run")
	baseline := flag.String("baseline", "", "committed report to gate against (empty disables)")
	tolerance := flag.Float64("tolerance", 0.20, "max allowed throughput regression vs -baseline")
	flag.Parse()
	if *stages <= 0 {
		fmt.Fprintln(os.Stderr, "hotbench: -stages must be positive")
		os.Exit(2)
	}
	if *repeat <= 0 {
		fmt.Fprintln(os.Stderr, "hotbench: -repeat must be positive")
		os.Exit(2)
	}
	if *tolerance <= 0 || *tolerance >= 1 {
		fmt.Fprintln(os.Stderr, "hotbench: -tolerance must lie in (0,1)")
		os.Exit(2)
	}
	rep, err := buildReport(*stages, *repeat, *full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hotbench:", err)
		os.Exit(1)
	}
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintln(os.Stderr, "hotbench:", err)
		os.Exit(1)
	}
	for _, s := range rep.Scenarios {
		fmt.Printf("%-22s N=%-6d H=%-3d  %12.0f ns/stage  %10.0f peer-stages/sec  %6.2f allocs/stage\n",
			s.Name, s.Peers, s.Helpers, s.NsPerStage, s.PeerStagesPerSec, s.AllocsPerStage)
	}
	for _, s := range rep.Cluster {
		fmt.Printf("%-22s C=%-4d N=%-6d H=%-3d  %10.0f ns/stage  %10.0f peer-stages/sec\n",
			s.Name, s.Channels, s.Peers, s.Helpers, s.NsPerStage, s.PeerStagesPerSec)
	}
	for _, s := range rep.Distsim {
		fmt.Printf("%-22s N=%-6d H=%-3d        %14.0f ns/stage  %10.0f peer-stages/sec  %6.2f allocs/stage\n",
			s.Name, s.Peers, s.Helpers, s.NsPerStage, s.PeerStagesPerSec, s.AllocsPerStage)
	}
	for _, l := range rep.Learner {
		fmt.Printf("learner m=%-4d  %8.1f ns/update  %6.2f allocs/update\n", l.M, l.NsPerOp, l.AllocsPerOp)
	}
	fmt.Println("wrote", *out)
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hotbench:", err)
			os.Exit(1)
		}
		if fails := compareReports(rep, base, *tolerance); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "hotbench: REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("gate: no regression beyond %.0f%% vs %s\n", 100**tolerance, *baseline)
	}
}
