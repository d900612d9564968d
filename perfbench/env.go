package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env records the machine around one workload run, so a noisy comparison
// can be traced to the host from the output alone. None of it is an
// end-to-end metric.
type env struct {
	gomaxprocs, nproc       int
	goVersion               string
	stealStart, stealEnd    int64 // -1 when /proc/stat is unreadable
	calibBefore, calibAfter float64
	calibSamples            []float64
}

// calibRounds is the number of timed passes of the calibration loop per
// reading; the reading is their median.
const calibRounds = 5

// calibLines is the calibration table's size in 64-byte cache lines:
// 16 MiB, beyond the caches, so the loop feels contention for memory as
// the workloads do.
const calibLines = 1 << 18

var calibSink uint64

// calibrate times a fixed pointer chase through a table it owns, one
// random cycle over its cache lines, so each read misses and waits on the
// last: its time moves only with the host (frequency, cache and memory
// contention), never with the code under test. The table is garbage once
// it returns.
func calibrate() []float64 {
	const stride = 16 // uint32s per cache line
	order := make([]uint32, calibLines)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(order) - 1; i > 0; i-- { // Sattolo: a single cycle
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		order[i], order[j] = order[j], order[i]
	}
	table := make([]uint32, calibLines*stride)
	for k, line := range order {
		table[line*stride] = order[(k+1)%len(order)] * stride
	}
	out := make([]float64, calibRounds)
	for i := range out {
		t0 := time.Now()
		p := uint32(0)
		for range 1 << 17 {
			p = table[p]
		}
		calibSink += uint64(p)
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return out
}

// stealTicks reads the aggregate CPU steal time from /proc/stat in clock
// ticks, or -1 when it is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return -1
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// startEnv runs the first calibration and opens the steal window.
func startEnv() *env {
	e := &env{gomaxprocs: runtime.GOMAXPROCS(0), nproc: runtime.NumCPU(), goVersion: runtime.Version()}
	samples := calibrate()
	e.calibSamples = append(e.calibSamples, samples...)
	e.calibBefore = median(samples)
	e.stealStart = stealTicks()
	return e
}

// finish closes the steal window and runs the second calibration.
func (e *env) finish() {
	e.stealEnd = stealTicks()
	samples := calibrate()
	e.calibSamples = append(e.calibSamples, samples...)
	e.calibAfter = median(samples)
}

func (e *env) steal() int64 {
	if e.stealStart < 0 || e.stealEnd < 0 {
		return -1
	}
	return e.stealEnd - e.stealStart
}

func (e *env) print(out io.Writer) {
	fmt.Fprintf(out, "env gomaxprocs=%d nproc=%d go=%s gogc=100 steal_ticks=%d calib_ms_before=%.3f calib_ms_after=%.3f\n",
		e.gomaxprocs, e.nproc, e.goVersion, e.steal(), e.calibBefore, e.calibAfter)
}

func (e *env) metrics(ms map[string]metric) {
	ms["env.calib_ms"] = metric{median(e.calibSamples), "ms"}
	ms["env.calib_ms_before"] = metric{e.calibBefore, "ms"}
	ms["env.calib_ms_after"] = metric{e.calibAfter, "ms"}
	ms["env.steal_ticks"] = metric{float64(e.steal()), "ticks"}
	ms["env.gomaxprocs"] = metric{float64(e.gomaxprocs), "count"}
	ms["env.nproc"] = metric{float64(e.nproc), "count"}
}
