// Package telemetry is the runtime observability layer: zero-allocation
// hot-path instruments (counters, gauges, fixed-bucket histograms), a
// registry that renders them in Prometheus text exposition format, a
// structured lifecycle event trace, and a small HTTP server exposing
// /metrics plus net/http/pprof.
//
// Two design rules keep the instruments safe on the simulator's hot
// path:
//
//   - Disabled telemetry costs nothing. Every instrument method is a
//     nil-receiver no-op, and a nil *Registry hands out nil instruments,
//     so call sites instrument unconditionally and the disabled path
//     reduces to a nil check.
//
//   - Telemetry never perturbs determinism. Instruments consume no
//     randomness and feed nothing back into the engine; counters and
//     bucket counts are integers, so merging per-node values in a fixed
//     order at stage/round boundaries yields bit-identical totals however
//     the nodes were scheduled. Wall-clock durations may be *observed*
//     (histograms), but deterministic outputs — the event trace, epoch
//     metrics — carry only stage-clock timestamps.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Updates are atomic, so
// a scrape may read concurrently with writers; on the simulator's hot
// path each engine owns its own Counter, so the atomics never contend.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
//
//rths:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
//
//rths:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Merge folds another counter's count into c. No-op if either is nil.
func (c *Counter) Merge(o *Counter) {
	if c == nil || o == nil {
		return
	}
	c.Add(o.Value())
}

// Reset zeroes the counter. No-op on a nil receiver.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is an instantaneous float64 value (set, not accumulated).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value. No-op on a nil receiver.
//
//rths:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: cumulative-style observation
// counts over ascending upper bounds plus an implicit +Inf bucket, with
// a running sum and count. Observe is allocation-free. Bucket counts
// are integers, so merging node-local histograms in a fixed order is
// deterministic; the float64 sum is also merged in that fixed order.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must be ascending")
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// NewLike builds an empty histogram with the same bucket bounds —
// the node-local twin a goroutine fills and Merges back. Nil-safe.
func (h *Histogram) NewLike() *Histogram {
	if h == nil {
		return nil
	}
	return NewHistogram(h.bounds)
}

// Observe records one value. No-op on a nil receiver; never allocates.
//
//rths:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

//rths:hotpath
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Merge folds another histogram's buckets, count and sum into h. The
// two must share bucket bounds. No-op if either side is nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	if len(o.bounds) != len(h.bounds) {
		panic("telemetry: merging histograms with different bucket bounds")
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.addSum(math.Float64frombits(o.sumBits.Load()))
}

// Reset zeroes all buckets, the count and the sum. No-op on nil.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets are the default upper bounds, in seconds, for stage
// and round latency histograms: 10µs … 10s, quasi-logarithmic.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
	}
}

// SizeBuckets are the default upper bounds for size histograms (batch
// sizes, peer counts): 1 … 100k, quasi-logarithmic.
func SizeBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindLabeledCounter
	kindLabeledGauge
	kindLabeledHistogram
)

type metric struct {
	name       string
	help       string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	gaugeFn    func() float64
	counterVec *LabeledCounter
	gaugeVec   *LabeledGauge
	histVec    *LabeledHistogram
}

// Registry is an ordered collection of named instruments. A nil
// *Registry is the disabled mode: its constructors return nil
// instruments whose methods no-op, so call sites never branch.
// Registration normally happens at setup time; rendering may run
// concurrently with instrument updates (values are atomic).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]struct{}
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byName[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter. Returns nil (a no-op
// instrument) on a nil registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewGauge registers and returns a gauge. Returns nil on a nil registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.add(metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewHistogram registers and returns a histogram over the given
// ascending bucket bounds. Returns nil on a nil registry.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(bounds)
	r.add(metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// NewGaugeFunc registers a gauge whose value is computed by fn at
// scrape time — for runtime stats (goroutines, heap) that would be
// stale as stored gauges. No-op on a nil registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(metric{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order. Labeled
// families render their children in lexicographic label-value order, so
// output is deterministic regardless of handle-resolution order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := r.metrics[:len(r.metrics):len(r.metrics)]
	r.mu.Unlock()
	var buf []byte
	for _, m := range metrics {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, m.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, m.name...)
		switch m.kind {
		case kindCounter:
			buf = append(buf, " counter\n"...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, m.counter.Value(), 10)
			buf = append(buf, '\n')
		case kindGauge:
			buf = append(buf, " gauge\n"...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = appendFloat(buf, m.gauge.Value())
			buf = append(buf, '\n')
		case kindGaugeFunc:
			buf = append(buf, " gauge\n"...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = appendFloat(buf, m.gaugeFn())
			buf = append(buf, '\n')
		case kindHistogram:
			buf = append(buf, " histogram\n"...)
			buf = appendHistogram(buf, m.name, "", m.hist)
		case kindLabeledCounter:
			buf = append(buf, " counter\n"...)
			for _, s := range m.counterVec.vec.children() {
				buf = append(buf, m.name...)
				buf = append(buf, s.rendered...)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, s.counter.Value(), 10)
				buf = append(buf, '\n')
			}
		case kindLabeledGauge:
			buf = append(buf, " gauge\n"...)
			for _, s := range m.gaugeVec.vec.children() {
				buf = append(buf, m.name...)
				buf = append(buf, s.rendered...)
				buf = append(buf, ' ')
				buf = appendFloat(buf, s.gauge.Value())
				buf = append(buf, '\n')
			}
		case kindLabeledHistogram:
			buf = append(buf, " histogram\n"...)
			for _, s := range m.histVec.vec.children() {
				buf = appendHistogram(buf, m.name, s.rendered, s.hist)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendHistogram renders one histogram's bucket/sum/count lines.
// labels is the pre-rendered {…} block of a labeled child ("" for the
// plain kind); the le label is spliced in before its closing brace.
func appendHistogram(buf []byte, name, labels string, h *Histogram) []byte {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		if labels == "" {
			buf = append(buf, `{le="`...)
		} else {
			buf = append(buf, labels[:len(labels)-1]...) // strip '}'
			buf = append(buf, `,le="`...)
		}
		if i < len(h.bounds) {
			buf = appendFloat(buf, h.bounds[i])
		} else {
			buf = append(buf, "+Inf"...)
		}
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = appendFloat(buf, h.Sum())
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count(), 10)
	return append(buf, '\n')
}

// appendEscapedHelp escapes a HELP string per the text exposition
// format: backslash and newline only.
func appendEscapedHelp(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendEscapedLabelValue escapes a label value per the text exposition
// format: backslash, double quote, and newline.
func appendEscapedLabelValue(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

func appendFloat(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// SystemInstruments is the per-engine instrument set a core.System
// updates on its stage hot path. Each engine owns its own set, so
// engines stepped concurrently never contend; any field may be nil to
// disable that instrument, and a nil *SystemInstruments disables the
// whole seam at the cost of one pointer check per stage.
type SystemInstruments struct {
	// SelectSeconds observes the wall-clock duration of each select
	// phase (environment step + per-peer selection + realization).
	SelectSeconds *Histogram
	// FinishSeconds observes the wall-clock duration of each feedback
	// phase (per-peer learner updates + OptWelfare).
	FinishSeconds *Histogram
	// Stages counts completed stages.
	Stages *Counter
	// ViewSwaps counts partial-view refresh swaps (exploration swaps of
	// an in-view helper for an unseen one).
	ViewSwaps *Counter
	// Clock, when set, replaces the process-monotonic clock for phase
	// timing — the seam tests use to make duration observations
	// deterministic. Must be monotonic non-decreasing, in nanoseconds.
	Clock func() int64
}

// Now reads the instrument clock: Clock if set, otherwise the shared
// process-monotonic nanosecond clock. Returns 0 on a nil receiver so
// disabled instruments never touch the clock at all.
func (si *SystemInstruments) Now() int64 {
	if si == nil {
		return 0
	}
	if si.Clock != nil {
		return si.Clock()
	}
	return MonotonicNow()
}
