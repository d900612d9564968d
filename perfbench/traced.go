package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rths"
	"rths/internal/trace"
)

// spanKind names what a cluster span timed.
type spanKind uint8

const (
	spanStage    spanKind = iota // StepStage, parent = stage
	spanChurn                    // Apply of one replayed event, parent = stage
	spanBoundary                 // the re-allocation boundary alone, parent = epoch
)

var spanNames = [...]string{"cluster.stage", "cluster.churn", "cluster.boundary"}

// span is one timed call of a traced cluster run, in nanoseconds since
// the run's construction finished.
type span struct {
	kind       spanKind
	start, end int64
	parent     int
}

// tracedRep is one trajectory driven through the per-stage calls.
type tracedRep struct {
	spans []span
	// measuredFrom is the first measured stage; wallNs the wall time of
	// the measured stages, spans included.
	measuredFrom int
	wallNs       int64
	// MemStats deltas over the measured stages.
	mallocs, allocBytes, gcCycles uint64
	end                           endState
	shape                         *shape
}

// runTracedRep reruns one trajectory through Apply (each replayed event,
// in trace order), StepStage (each stage) and, at each epoch's last stage,
// ReplayTotals on an empty workload: its callback fires after the stage
// and before the re-allocation boundary, so callback-to-return is the
// boundary alone. The driving loop ends in the same state as Replay or
// RunEpoch on the same seed.
func runTracedRep(w workload, s seeds, ops *counter) (*tracedRep, bool) {
	inst, err := w.newInstance(s, w.telemetry)
	if err != nil {
		ops.fail("config: %v", err)
		return nil, false
	}
	c, cfg, _, err := inst.open()
	if err != nil {
		ops.fail("NewCluster: %v", err)
		return nil, false
	}
	defer func() {
		if err := c.Close(); err != nil {
			ops.fail("Close: %v", err)
		}
	}()
	horizon, es := inst.sc.Horizon(), inst.sc.EpochStages
	events := 0
	var perStage [][]trace.Event
	if inst.wl != nil {
		events = eventsBefore(inst.wl, horizon)
		perStage = inst.wl.PerStage(horizon)
	}
	tr := &tracedRep{
		spans:        make([]span, 0, horizon+events+w.epochs()),
		measuredFrom: w.warmup * es,
	}
	empty := &rths.Workload{}
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	var mark, t0 int64
	boundaryStart := func(rths.ClusterStageTotals) { mark = now() }
	var m0, m1 runtime.MemStats
	for st := 0; st < horizon; st++ {
		if st == tr.measuredFrom {
			runtime.ReadMemStats(&m0)
			t0 = now()
		}
		if perStage != nil {
			for _, e := range perStage[st] {
				a := now()
				err := c.Apply(e)
				tr.spans = append(tr.spans, span{spanChurn, a, now(), st})
				ops.attempt(1)
				if err != nil {
					ops.fail("%s traced Apply at stage %d: %v", w.name, st, err)
					return nil, false
				}
			}
		}
		a := now()
		if (st+1)%es != 0 {
			_, err = c.StepStage()
			tr.spans = append(tr.spans, span{spanStage, a, now(), st})
			ops.attempt(1)
		} else {
			err = c.ReplayTotals(empty, 1, boundaryStart)
			b := now()
			tr.spans = append(tr.spans, span{spanStage, a, mark, st}, span{spanBoundary, mark, b, st / es})
			ops.attempt(2)
		}
		if err != nil {
			ops.fail("%s traced stage %d: %v", w.name, st, err)
			return nil, false
		}
	}
	tr.wallNs = now() - t0
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	tr.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	tr.gcCycles = uint64(m1.NumGC - m0.NumGC)
	tr.end = stateOf(c)
	tr.shape = shapeOf(c, inst.sc, cfg)
	return tr, true
}

// overheadTrajectories is the number of trajectories also rerun with
// telemetry toggled to measure its overhead.
const overheadTrajectories = 4

// runTraced is the layer-attributed run. Each trajectory runs untraced
// (the reference), traced and, for the first few, with telemetry
// toggled, in rotating order so each overhead compares runs made
// close together; then each layer is driven directly at the shape the
// first traced trajectory ends in.
func runTraced(opt options, ops *counter, out io.Writer) map[string]metric {
	w := opt.workload
	traj, layerSeed := deriveSeeds(opt.seed)
	e := startEnv()
	stage := newTiming("cluster.stage", "us", 1e3, 0)
	boundary := newTiming("cluster.boundary", "ms", 1e6, 0)
	churn := newTiming("cluster.churn", "us", 1e3, 0)
	ref := make([]*rep, len(traj))
	var mallocs, allocBytes, gcCycles uint64
	var tracedNs, untracedNs, onNs, offNs int64
	var measuredStages int
	var spans []span
	var sh *shape
	for k, s := range traj {
		var tr *tracedRep
		var toggled *rep
		ok := true
		for i := range 3 {
			switch (i + k) % 3 {
			case 0:
				ref[k], ok = runRep(w, s, w.telemetry, 1, false, ops)
			case 1:
				tr, ok = runTracedRep(w, s, ops)
			case 2:
				if k < overheadTrajectories {
					toggled, ok = runRep(w, s, !w.telemetry, 1, false, ops)
				}
			}
			if !ok {
				return nil
			}
		}
		if !tr.end.equal(ref[k].end) {
			ops.fail("trajectory %d: traced end state %+v differs from untraced %+v", k, tr.end, ref[k].end)
		}
		if toggled != nil {
			on, off := ref[k].wallNs, toggled.wallNs
			if !w.telemetry {
				on, off = off, on
			}
			onNs += on
			offNs += off
		}
		for _, sp := range tr.spans {
			switch {
			case sp.kind == spanBoundary && sp.parent >= w.warmup:
				boundary.add(float64(sp.end - sp.start))
			case sp.kind == spanStage && sp.parent >= tr.measuredFrom:
				stage.add(float64(sp.end - sp.start))
			case sp.kind == spanChurn && sp.parent >= tr.measuredFrom:
				churn.add(float64(sp.end - sp.start))
			}
		}
		if k == 0 {
			spans, sh = tr.spans, tr.shape
		}
		mallocs += tr.mallocs
		allocBytes += tr.allocBytes
		gcCycles += tr.gcCycles
		tracedNs += tr.wallNs
		untracedNs += ref[k].wallNs
		measuredStages += tr.end.Stage - tr.measuredFrom
	}

	ms := map[string]metric{}
	stage.report(ms, "cluster.stage_us_p50", "cluster.stage_us_p99")
	boundary.report(ms, "cluster.boundary_ms_p50", "cluster.boundary_ms_tail")
	churn.report(ms, "cluster.churn_us_p50", "cluster.churn_us_p99")
	ms["cluster.allocs_per_stage"] = metric{float64(mallocs) / float64(measuredStages), "count"}
	ms["cluster.alloc_bytes_per_stage"] = metric{float64(allocBytes) / float64(measuredStages), "B"}
	ms["cluster.gc_cycles"] = metric{float64(gcCycles), "count"}
	viewerOps, helperOps := behaviourCounts(ref, w.warmup)
	ms["cluster.viewer_ops_per_stage"] = metric{viewerOps, "count"}
	ms["cluster.helper_ops_per_epoch"] = metric{helperOps, "count"}
	ms["telemetry.overhead_frac"] = metric{float64(onNs)/float64(offNs) - 1, "1"}
	ms["trace.overhead_frac"] = metric{float64(tracedNs)/float64(untracedNs) - 1, "1"}
	runLayers(sh, w, layerSeed, opt.layerSamples, ops, ms)
	e.finish()
	e.metrics(ms)

	path := opt.spans
	if path == "" {
		path = filepath.Join(buildDir(), "spans-"+w.name+".jsonl")
	}
	if err := writeSpans(path, spans); err != nil {
		ops.fail("writing spans: %v", err)
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trajectories=%d traced digest=%s spans=%s\n",
		w.name, opt.seed, len(traj), digest(ref), path)
	e.print(out)
	return ms
}

// behaviourCounts are the untraced run's churn counts: viewer operations
// (switches, joins, leaves) per stage and helper operations (moves,
// evictions, readmissions) per epoch, over the measured epochs.
func behaviourCounts(reps []*rep, warmup int) (viewerPerStage, helperPerEpoch float64) {
	var viewer, helper, stages, epochs int
	for _, r := range reps {
		for _, m := range r.epochs[warmup:] {
			viewer += m.Switches + m.Joins + m.Leaves
			helper += m.Moves + m.Evicted + m.Readmitted
			stages += m.Stages
			epochs++
		}
	}
	return float64(viewer) / float64(stages), float64(helper) / float64(epochs)
}

// buildDir is where run.sh builds the binary; the spans file goes there
// too, so a run writes nothing else into the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// writeSpans writes the first trajectory's cluster spans as JSONL.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type record struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Stage   *int   `json:"stage,omitempty"`
		Epoch   *int   `json:"epoch,omitempty"`
	}
	for _, sp := range spans {
		r := record{Name: spanNames[sp.kind], StartNs: sp.start, EndNs: sp.end}
		parent := sp.parent
		if sp.kind == spanBoundary {
			r.Epoch = &parent
		} else {
			r.Stage = &parent
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
