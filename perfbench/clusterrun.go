package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rths"
)

// counter tallies the operations a run attempts (stages stepped, churn
// events applied, epochs closed) and the ones that failed, failed output
// checks included. The totals are atomic so the watchdog can read them
// from its own goroutine.
type counter struct {
	attempted, failed atomic.Int64
	// beats counts progress of any kind, set-up and layer runs included.
	beats atomic.Int64
	errs  []string
}

func (o *counter) attempt(n int) {
	o.attempted.Add(int64(n))
	o.beats.Add(1)
}

func (o *counter) beat() { o.beats.Add(1) }

func (o *counter) fail(format string, args ...any) {
	o.failed.Add(1)
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// endState is what a run must agree on with any other run of the same
// seed and horizon, however it was driven.
type endState struct {
	Stage, Epoch int
	Assignment   []int
	Audiences    []int
}

func stateOf(c *rths.Cluster) endState {
	s := endState{Stage: c.Stage(), Epoch: c.Epoch(), Assignment: slices.Clone(c.Assignment())}
	for ci := 0; ci < c.NumChannels(); ci++ {
		s.Audiences = append(s.Audiences, c.ChannelAudience(ci))
	}
	return s
}

func (s endState) equal(o endState) bool {
	return s.Stage == o.Stage && s.Epoch == o.Epoch &&
		slices.Equal(s.Assignment, o.Assignment) && slices.Equal(s.Audiences, o.Audiences)
}

// rep is one untraced run of a trajectory: a fresh construction run
// through the warm-up and measured epochs.
type rep struct {
	// setupNs is the wall time of each NewCluster the run timed.
	setupNs []int64
	// viewerStages is Σ ActivePeers×Stages over the measured epochs and
	// wallNs their wall time (construction and warm-up excluded).
	viewerStages, wallNs int64
	// heapBytes is the live heap after a full GC with the cluster still
	// open and the churn workload released; viewers the audience then.
	heapBytes uint64
	viewers   int
	epochs    []rths.ClusterEpochMetrics
	end       endState
}

// digest hashes the per-epoch metrics of every trajectory in order;
// equal seeds must give equal digests.
func digest(reps []*rep) string {
	h := sha256.New()
	for _, r := range reps {
		fmt.Fprintf(h, "%+v\n", r.epochs)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// same reports whether two runs of one trajectory agree on every
// deterministic output.
func (r *rep) same(o *rep) bool {
	return slices.Equal(r.epochs, o.epochs) && r.end.equal(o.end)
}

// quality returns the means over the measured epochs of the deterministic
// quality metrics.
func (r *rep) quality(warmup int) (welfare, continuity, maxDeficit float64) {
	measured := r.epochs[warmup:]
	for _, m := range measured {
		welfare += m.WelfareRatio
		continuity += m.Continuity
		maxDeficit += m.MaxDeficit
	}
	n := float64(len(measured))
	return welfare / n, continuity / n, maxDeficit / n
}

// setupsPerRep is the number of constructions a measured trajectory run
// times: the first setupsPerRep-1 are closed at once and the last one
// runs. One NewCluster takes milliseconds, so several per run give
// setup_s many samples at little cost.
const setupsPerRep = 4

// runRep constructs the trajectory's cluster setups times, timing each
// NewCluster, and runs the last construction untraced through Replay when
// the workload has a churn trace and RunEpoch otherwise. With heap set it
// also measures the live heap at the end.
func runRep(w workload, s seeds, telemetry bool, setups int, heap bool, ops *counter) (*rep, bool) {
	inst, err := w.newInstance(s, telemetry)
	if err != nil {
		ops.fail("config: %v", err)
		return nil, false
	}
	r := &rep{
		setupNs: make([]int64, 0, setups),
		epochs:  make([]rths.ClusterEpochMetrics, 0, w.epochs()),
	}
	var c *rths.Cluster
	for i := range setups {
		var d time.Duration
		if c, _, d, err = inst.open(); err != nil {
			ops.fail("NewCluster: %v", err)
			return nil, false
		}
		r.setupNs = append(r.setupNs, d.Nanoseconds())
		ops.beat()
		if i == setups-1 {
			break
		}
		if err := c.Close(); err != nil {
			ops.fail("Close: %v", err)
			return nil, false
		}
	}
	defer func() {
		if err := c.Close(); err != nil {
			ops.fail("Close: %v", err)
		}
	}()
	var last time.Time
	observe := func(m rths.ClusterEpochMetrics) {
		now := time.Now()
		ops.attempt(m.Stages + 1)
		if m.Epoch >= w.warmup {
			r.viewerStages += int64(m.ActivePeers) * int64(m.Stages)
			r.wallNs += now.Sub(last).Nanoseconds()
		}
		last = now
		r.epochs = append(r.epochs, m)
	}
	horizon := inst.sc.Horizon()
	last = time.Now()
	if inst.wl != nil {
		ops.attempt(eventsBefore(inst.wl, horizon))
		err = c.Replay(inst.wl, horizon, observe)
	} else {
		err = c.Run(w.epochs(), observe)
	}
	if err != nil {
		ops.fail("%s run: %v", w.name, err)
		return nil, false
	}
	if len(r.epochs) != w.epochs() {
		ops.fail("%s run closed %d epochs, want %d", w.name, len(r.epochs), w.epochs())
		return nil, false
	}
	r.end = stateOf(c)
	if !heap {
		return r, true
	}
	inst.wl = nil // the heap must hold the cluster, not its input trace
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes, r.viewers = ms.HeapAlloc, c.ActivePeers()
	return r, true
}

func eventsBefore(wl *rths.Workload, horizon int) int {
	n := 0
	for _, e := range wl.Events {
		if e.Stage >= 0 && e.Stage < horizon {
			n++
		}
	}
	return n
}
