package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rths"
)

// syncBuffer is a mutex-guarded bytes.Buffer: TestRunMetricsEndpoint
// reads stderr while run is still writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunSmallPresetEmitsEpochJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "small", "-epochs", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m rths.ClusterEpochMetrics
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		if m.Epoch != lines {
			t.Fatalf("epoch %d on line %d", m.Epoch, lines)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("emitted %d epoch records, want 3", lines)
	}
	if !strings.Contains(errOut.String(), "cluster:") {
		t.Fatalf("missing summary: %q", errOut.String())
	}
}

// TestRunChurnReplayEmitsEpochJSON drives the trace-replay mode end to
// end: the churn preset must emit decodable per-epoch records with actual
// replayed joins and leaves, and report the replay mode in the summary.
func TestRunChurnReplayEmitsEpochJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "churn", "-epochs", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines, joins, leaves := 0, 0, 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m rths.ClusterEpochMetrics
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		joins += m.Joins
		leaves += m.Leaves
		lines++
	}
	if lines != 3 {
		t.Fatalf("emitted %d epoch records, want 3", lines)
	}
	if joins == 0 || leaves == 0 {
		t.Fatalf("replay inert: %d joins, %d leaves", joins, leaves)
	}
	if !strings.Contains(errOut.String(), "mode=replay") {
		t.Fatalf("summary missing replay mode: %q", errOut.String())
	}
}

// TestRunViewsPreset drives the partial-view preset end to end: decodable
// per-epoch JSON, the view bound in the summary, and CLI overrides of the
// view flags on another preset.
func TestRunViewsPreset(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "views", "-epochs", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var m rths.ClusterEpochMetrics
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("emitted %d epoch records, want 3", lines)
	}
	if !strings.Contains(errOut.String(), "view=8") {
		t.Fatalf("summary missing the view bound: %q", errOut.String())
	}
	if err := run([]string{"-preset", "small", "-epochs", "1", "-view-size", "4", "-view-refresh", "10"}, &out, &errOut); err != nil {
		t.Fatalf("view flags rejected: %v", err)
	}
}

func TestRunAllocators(t *testing.T) {
	for _, name := range []string{"greedy", "proportional", "static"} {
		var out, errOut bytes.Buffer
		args := []string{"-preset", "small", "-epochs", "2", "-alloc", name}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("alloc %s: %v", name, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-preset", "galactic"}, "unknown preset"},
		{[]string{"-alloc", "psychic"}, "unknown allocator"},
		// The manager fork is derived from the host, and every run steps
		// on distsim; neither is configured.
		{[]string{"-workers", "4"}, "flag provided but not defined"},
		{[]string{"-backend", "distsim"}, "flag provided but not defined"},
		// Trace-shaping flags without a trace would be silently dropped.
		{[]string{"-series-every", "5"}, "-series-every 5 needs -trace"},
		{[]string{"-trace-max-bytes", "1000"}, "-trace-max-bytes 1000 needs -trace"},
		// The faults preset stripes 90 helpers over 3 domains: domain 9
		// is empty, so the partition would cut nothing.
		{[]string{"-preset", "faults", "-fault-partition-domain", "9"}, "partition domain 9 holds no helper"},
		{[]string{"-preset", "faults", "-fault-domains", "1"}, "partition needs FaultDomains > 1"},
		// Every flag the user sets applies, so a bad value fails naming
		// the flag instead of quietly running the preset unchanged.
		{[]string{"-preset", "faults", "-fault-drop", "NaN"}, "-fault-drop NaN"},
		{[]string{"-bitrate", "NaN"}, "-bitrate NaN"},
		{[]string{"-bitrate", "-1"}, "-bitrate -1"},
		{[]string{"-zipf", "NaN"}, "-zipf NaN"},
		{[]string{"-switch-prob", "NaN"}, "-switch-prob NaN"},
		{[]string{"-churn-arrival", "NaN"}, "-churn-arrival NaN"},
		{[]string{"-epoch-stages", "-1"}, "-epoch-stages -1"},
		// A zero-stage epoch would print "5 epochs × 0 stages" over a
		// zero-stage horizon; with a churn trace it would fail naming
		// neither the flag nor the field.
		{[]string{"-epoch-stages", "0"}, "-epoch-stages 0: experiment: cluster scenario: EpochStages=0"},
		{[]string{"-preset", "churn", "-epoch-stages", "0"}, "EpochStages=0"},
		// A finite but huge churn rate fails at once naming the rate, not
		// by exhausting memory while the trace is generated.
		{[]string{"-preset", "churn", "-churn-arrival", "1e9"}, "ArrivalRate=1e+09"},
		{[]string{"-channels", "0"}, "-channels 0"},
		{[]string{"-helpers", "-1"}, "-helpers -1"},
		{[]string{"-epochs", "-1"}, "-epochs -1"},
		{[]string{"-flash-peers", "-1"}, "-flash-peers -1"},
		{[]string{"-detector-suspect", "-1"}, "-detector-suspect -1"},
		{[]string{"-churn-arrival", "-1"}, "-churn-arrival -1"},
		{[]string{"-churn-arrival", "2", "-churn-lifetime", "0"}, "MeanLifetime=0"},
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRunOutAndTraceFiles exercises -out and -trace: epoch records land
// in the file (stdout stays empty), the trace is parseable JSONL, and an
// equal-seed rerun reproduces both byte-for-byte.
func TestRunOutAndTraceFiles(t *testing.T) {
	emit := func() (string, string) {
		dir := t.TempDir()
		outFile := filepath.Join(dir, "epochs.jsonl")
		traceFile := filepath.Join(dir, "events.jsonl")
		var out, errOut bytes.Buffer
		err := run([]string{"-preset", "faults", "-epochs", "3",
			"-out", outFile, "-trace", traceFile}, &out, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Fatalf("-out set but stdout has %d bytes", out.Len())
		}
		if !strings.Contains(errOut.String(), "trace: ") {
			t.Fatalf("summary missing trace line: %q", errOut.String())
		}
		epochs, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		events, err := os.ReadFile(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		return string(epochs), string(events)
	}
	epochs, events := emit()
	lines := 0
	sc := bufio.NewScanner(strings.NewReader(epochs))
	for sc.Scan() {
		var m rths.ClusterEpochMetrics
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad epoch line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("-out wrote %d epoch records, want 3", lines)
	}
	traced := 0
	sc = bufio.NewScanner(strings.NewReader(events))
	for sc.Scan() {
		var e rths.TelemetryEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Kind == "" {
			t.Fatalf("trace line without kind: %q", sc.Text())
		}
		traced++
	}
	if traced == 0 {
		t.Fatal("trace file empty")
	}
	epochs2, events2 := emit()
	if epochs != epochs2 || events != events2 {
		t.Fatal("equal-seed reruns produced different files")
	}
}

// TestRunMetricsEndpoint starts the in-process metrics server, lets the
// run finish under -metrics-hold, and scrapes /metrics while it serves.
func TestRunMetricsEndpoint(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-preset", "small", "-epochs", "2",
			"-metrics-addr", "127.0.0.1:0", "-metrics-hold", "20s"}, &out, &errOut)
	}()
	// The bound address is printed before the run starts; poll for it.
	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		for _, line := range strings.Split(errOut.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "metrics: serving /metrics and /debug/pprof on http://"); ok {
				addr = rest
			}
		}
		if addr == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("bound address never printed: %q", errOut.String())
	}
	// Wait for the run itself to complete (the summary line) so the
	// gauges hold final values, then scrape.
	for i := 0; i < 500 && !strings.Contains(errOut.String(), "cluster: "); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rths_welfare_ratio ",
		"rths_helpers_down ",
		"rths_stages_total 40",
		"rths_stage_seconds_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Don't wait out the hold: the test process exits when run returns,
	// so just verify the run is still holding (no error yet).
	select {
	case err := <-done:
		t.Fatalf("run returned before the hold elapsed: %v", err)
	default:
	}
}
