package cluster

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/telemetry"
)

// runEpochs drives cfg for `epochs` epochs and returns the metric records.
func runEpochs(t *testing.T, cfg Config, epochs int) []EpochMetrics {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out []EpochMetrics
	if err := c.Run(epochs, func(m EpochMetrics) { out = append(out, m) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// Telemetry must never perturb the run: with instruments and tracing on,
// every epoch record is bit-identical to the uninstrumented run, inline
// and with channels forked, and on both backends.
func TestTelemetryOnOffBitIdentical(t *testing.T) {
	const epochs = 3
	t.Run("memory workers", func(t *testing.T) {
		base := runEpochs(t, fourChannelConfig(11, nil), epochs)
		for _, procs := range []int{1, 4} {
			cfg := fourChannelConfig(11, nil)
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Trace = telemetry.NewTracer(&bytes.Buffer{})
			cfg.SeriesEvery = 5
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forcePool(t, c, procs)
			var got []EpochMetrics
			if err := c.Run(epochs, func(m EpochMetrics) { got = append(got, m) }); err != nil {
				t.Fatal(err)
			}
			for e := range base {
				if got[e] != base[e] {
					t.Fatalf("workers=%d epoch %d diverged with telemetry on:\n  on:  %+v\n  off: %+v",
						procs, e, got[e], base[e])
				}
			}
		}
	})
	t.Run("distsim faults", func(t *testing.T) {
		base := runEpochs(t, faultConfig(21, true), epochs)
		cfg := faultConfig(21, true)
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Trace = telemetry.NewTracer(&bytes.Buffer{})
		cfg.SeriesEvery = 5
		got := runEpochs(t, cfg, epochs)
		for e := range base {
			if got[e] != base[e] {
				t.Fatalf("epoch %d diverged with telemetry on:\n  on:  %+v\n  off: %+v", e, got[e], base[e])
			}
		}
	})
}

// The instrument set must reflect the run: stage counters advance, the
// epoch gauges track the last record, and the distsim message counters
// obey the 2H+2C-per-round protocol cost (plus migration hand-offs).
func TestClusterMetricsPopulated(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := fourChannelConfig(31, distsim.Lossy{})
	cfg.Metrics = reg
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var records []EpochMetrics
	if err := c.Run(2, func(m EpochMetrics) { records = append(records, m) }); err != nil {
		t.Fatal(err)
	}
	last := records[len(records)-1]
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"rths_stages_total 40",
		"rths_epochs_total 2",
		"rths_welfare_ratio ",
		"rths_helpers_down 0",
		"rths_stage_seconds_bucket",
		"rths_distsim_batch_peers_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// 40 rounds × (2H + 2C) plus one hand-off per migrated helper.
	parse := func(name string) int {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("parse %s: %v", name, err)
				}
				return v
			}
		}
		t.Fatalf("series %s not found", name)
		return 0
	}
	msgs := parse("rths_distsim_msgs_total")
	// A boundary's migrations enqueue ops the managers apply at the start
	// of the *next* round, so only moves from boundaries before the final
	// one pay their ownership hand-off message inside the run's window.
	applied := 0
	for _, m := range records[:len(records)-1] {
		applied += m.Moves
	}
	if want := 40*(2*len(cfg.Helpers)+2*len(cfg.Channels)) + applied; msgs != want {
		t.Fatalf("rths_distsim_msgs_total = %d, want 40·(2H+2C)+applied moves = %d", msgs, want)
	}
	if got := parse("rths_distsim_batches_total"); got != 40*len(cfg.Helpers) {
		t.Fatalf("rths_distsim_batches_total = %d, want 40·H = %d", got, 40*len(cfg.Helpers))
	}
	if last.WelfareRatio == 0 {
		t.Fatal("no epoch observed")
	}
}

// traceRun executes the fault scenario with a tracer attached and
// returns the raw JSONL trace.
func traceRun(t *testing.T, seed uint64, epochs int) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := faultConfig(seed, true)
	cfg.Trace = telemetry.NewTracer(&buf)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(epochs, nil); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The lifecycle trace must be byte-identical across equal-seed runs and
// must reconstruct the detector timeline: every evicted helper shows
// suspect → evict (→ readmit when probation elapses inside the run), in
// stage order, including the scheduled crash victim.
func TestTraceDetectorTimeline(t *testing.T) {
	const epochs = 10 // 100 stages: crash 25–55, readmit probation 40
	a := traceRun(t, 77, epochs)
	b := traceRun(t, 77, epochs)
	if a != b {
		t.Fatal("equal-seed traces differ byte-for-byte")
	}
	type ev struct {
		Stage  int     `json:"stage"`
		Epoch  int     `json:"epoch"`
		Kind   string  `json:"kind"`
		Helper int     `json:"helper"`
		Value  float64 `json:"value"`
		Detail string  `json:"detail"`
	}
	var events []ev
	lastStage := 0
	for _, line := range strings.Split(strings.TrimSuffix(a, "\n"), "\n") {
		var e ev
		e.Helper = -1
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if e.Stage < lastStage {
			t.Fatalf("trace not in stage order: %q after stage %d", line, lastStage)
		}
		lastStage = e.Stage
		events = append(events, e)
	}
	// Reconstruct per-helper detector timelines.
	type timeline struct{ suspect, evict, readmit []int }
	lines := map[int]*timeline{}
	tl := func(h int) *timeline {
		if lines[h] == nil {
			lines[h] = &timeline{}
		}
		return lines[h]
	}
	sawFaultOpen := false
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindSuspect:
			tl(e.Helper).suspect = append(tl(e.Helper).suspect, e.Stage)
		case telemetry.KindEvict:
			tl(e.Helper).evict = append(tl(e.Helper).evict, e.Stage)
		case telemetry.KindReadmit:
			tl(e.Helper).readmit = append(tl(e.Helper).readmit, e.Stage)
		case telemetry.KindFaultOpen:
			sawFaultOpen = true
		}
	}
	if !sawFaultOpen {
		t.Fatal("no fault_open events for a run with a scheduled crash and partition")
	}
	if lines[7] == nil || len(lines[7].evict) == 0 {
		t.Fatal("crash victim helper 7 never evicted in the trace")
	}
	for h, l := range lines {
		if len(l.evict) == 0 {
			continue
		}
		if len(l.suspect) == 0 {
			t.Errorf("helper %d evicted without a preceding suspect event", h)
			continue
		}
		if l.suspect[0] > l.evict[0] {
			t.Errorf("helper %d: first suspect at %d after first evict at %d", h, l.suspect[0], l.evict[0])
		}
		for i, r := range l.readmit {
			if i >= len(l.evict) {
				t.Errorf("helper %d: readmit #%d without matching evict", h, i)
				break
			}
			if gap := r - l.evict[i]; gap < 40 {
				t.Errorf("helper %d: readmitted %d stages after eviction, probation is 40", h, gap)
			}
		}
	}
	// Every eviction the trace shows must also have been counted: the
	// fault scenario reliably evicts the crash victim, so a trace with
	// evictions but no readmissions after 100 stages would be wrong too.
	if len(lines[7].readmit) == 0 {
		t.Error("helper 7 evicted but never readmitted in 100 stages with 40-stage probation")
	}
}

// The dimensional families must expose one child per entity, keyed by
// the configured channel name / helper index, alongside the round-span
// profile gauges.
func TestDimensionalSeriesExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := fourChannelConfig(13, distsim.Lossy{})
	cfg.Metrics = reg
	if _, err := runOne(t, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`rths_channel_welfare_ratio{channel="hot"} `,
		`rths_channel_continuity{channel="cold-b"} `,
		`rths_channel_active_peers{channel="warm"} `,
		`rths_channel_deficit_kbps{channel="hot"} `,
		`rths_channel_pool_helpers{channel="hot"} `,
		`rths_helper_assigned_channel{helper="0"} `,
		`rths_helper_expected_capacity_kbps{helper="39"} `,
		`rths_helper_down{helper="0"} 0`,
		"rths_barrier_tax ",
		"rths_straggler_lead_ratio ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Straggler attribution is a labeled counter over channels; across an
	// epoch the per-channel straggler rounds must sum to the round count.
	total := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "rths_channel_straggler_rounds_total{") {
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			total += v
		}
	}
	if total != cfg.EpochStages {
		t.Fatalf("straggler rounds sum to %d, want %d (one straggler per round)", total, cfg.EpochStages)
	}
}

// runOne drives cfg for a single epoch.
func runOne(t *testing.T, cfg Config) (EpochMetrics, error) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		return EpochMetrics{}, err
	}
	defer c.Close()
	return c.RunEpoch()
}

// An adversarially named channel must not corrupt the exposition: the
// label value is escaped per the Prometheus text format end to end.
func TestHostileChannelNameEscapedOnMetricsPage(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := fourChannelConfig(17, nil)
	cfg.Channels[1].Name = "evil\"quote\\slash\nnewline"
	cfg.Metrics = reg
	if _, err := runOne(t, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	want := `rths_channel_active_peers{channel="evil\"quote\\slash\nnewline"} `
	if !strings.Contains(out, want) {
		t.Fatalf("hostile channel name not escaped; exposition:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.Contains(line, "evil") && !strings.Contains(line, `evil\"quote`) {
			t.Fatalf("raw hostile name leaked into line %q", line)
		}
	}
}

// The barrier-tax gauge separates skewed from uniform audiences: with one
// channel holding nearly all peers the fleet idles most of each round
// (tax well above one half); with equal audiences the tax stays below it.
func TestBarrierTaxSkewVsUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock span measurement")
	}
	tax := func(peers [4]int) float64 {
		cfg := Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 600, InitialPeers: peers[0]},
				{Name: "b", Bitrate: 600, InitialPeers: peers[1]},
				{Name: "c", Bitrate: 600, InitialPeers: peers[2]},
				{Name: "d", Bitrate: 600, InitialPeers: peers[3]},
			},
			Helpers:     UniformHelpers(40, core.DefaultHelperSpec()),
			Link:        distsim.Lossy{},
			EpochStages: 20,
			Seed:        29,
			Metrics:     telemetry.NewRegistry(),
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run(2, nil); err != nil {
			t.Fatal(err)
		}
		return c.tel.barrierTax.Value()
	}
	skewed := tax([4]int{2000, 5, 5, 5})
	uniform := tax([4]int{500, 500, 500, 500})
	t.Logf("barrier tax: skewed %.3f, uniform %.3f", skewed, uniform)
	if uniform >= skewed {
		t.Errorf("uniform tax %g not below skewed tax %g", uniform, skewed)
	}
	// The absolute thresholds hold only without race instrumentation,
	// which inflates the fixed per-round cost and flattens the ratio.
	if !raceEnabled {
		if skewed <= 0.5 {
			t.Errorf("skewed audience barrier tax = %g, want > 0.5", skewed)
		}
		if uniform >= 0.5 {
			t.Errorf("uniform audience barrier tax = %g, want < 0.5", uniform)
		}
	}
}
