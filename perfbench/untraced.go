package main

import (
	"fmt"
	"io"
	"time"
)

// runPass runs every trajectory once, in order, each with setupsPerRep
// timed constructions.
func runPass(w workload, traj []seeds, heap bool, ops *counter) ([]*rep, bool) {
	reps := make([]*rep, len(traj))
	for k, s := range traj {
		r, ok := runRep(w, s, w.telemetry, setupsPerRep, heap, ops)
		if !ok {
			return nil, false
		}
		reps[k] = r
	}
	return reps, true
}

// runUntraced measures the end-to-end metrics. It passes over the
// trajectories at least once, and again while the next pass, taking as
// long as the last one, would end within the measurement time.
// Throughput is the median over the passes of one pass's viewer-stages
// divided by the wall time of its measured epochs; set-up time is the
// median of every timed construction. Both medians interpolate, so the
// figures are the same function of the samples whatever the pass count,
// which the run prints. Heap and the quality metrics are means over the
// first pass's trajectories: they repeat for a seed.
func runUntraced(opt options, ops *counter, out io.Writer) map[string]metric {
	w := opt.workload
	traj, _ := deriveSeeds(opt.seed)
	e := startEnv()
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var first []*rep
	var rates, setups []float64
	var last time.Duration
	for first == nil || time.Now().Add(last).Before(deadline) {
		t0 := time.Now()
		reps, ok := runPass(w, traj, first == nil, ops)
		last = time.Since(t0)
		if !ok {
			return nil
		}
		if first == nil {
			first = reps
		}
		var viewerStages, wallNs int64
		for k, r := range reps {
			if !r.same(first[k]) {
				ops.fail("trajectory %d diverged between passes on the same seed", k)
			}
			viewerStages += r.viewerStages
			wallNs += r.wallNs
			for _, d := range r.setupNs {
				setups = append(setups, float64(d)/1e9)
			}
		}
		rates = append(rates, float64(viewerStages)/(float64(wallNs)/1e9))
	}
	e.finish()

	var heap, welfare, continuity, maxDeficit float64
	for _, r := range first {
		heap += float64(r.heapBytes) / float64(r.viewers)
		wf, ct, md := r.quality(w.warmup)
		welfare += wf
		continuity += ct
		maxDeficit += md
	}
	n := float64(len(first))
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trajectories=%d passes=%d setups=%d digest=%s\n",
		w.name, opt.seed, len(first), len(rates), len(setups), digest(first))
	e.print(out)
	return map[string]metric{
		"peer_stages_per_s":     {median(rates), "1/s"},
		"setup_s":               {median(setups), "s"},
		"heap_bytes_per_viewer": {heap / n, "B"},
		"welfare_ratio":         {welfare / n, "1"},
		"continuity":            {continuity / n, "1"},
		"max_deficit_kbps":      {maxDeficit / n, "kbps"},
	}
}
