package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the smoke test
// checks the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs a short horizon of one workload (one warm-up and one
// measured epoch per trajectory, few layer samples) and returns its stdout
// lines and parsed result.
func smoke(t *testing.T, name string, trace bool) ([]string, result) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.measured = 1, 1
	opt := options{workload: w, seed: 5, seconds: 0.01, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.jsonl"), layerSamples: 30}
	var out, errOut bytes.Buffer
	if code := execute(opt, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
	}
	return lines, res
}

func assertMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	var wantNames []string
	for _, m := range want {
		wantNames = append(wantNames, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	slices.Sort(names)
	slices.Sort(wantNames)
	if !slices.Equal(names, wantNames) {
		t.Errorf("metrics %v\nwant %v", names, wantNames)
	}
}

var digestRE = regexp.MustCompile(`digest=([0-9a-f]+)`)

func digestOf(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if m := digestRE.FindStringSubmatch(l); m != nil {
			return m[1]
		}
	}
	t.Fatalf("no digest line in %q", lines)
	return ""
}

// TestWorkloadsSmoke runs every workload untraced twice and traced once
// on a short horizon: each prints every named metric with its unit, the
// traced run ends in the untraced state (the run fails otherwise), and
// equal seeds print equal digests.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			lines, res := smoke(t, w.Name, false)
			assertMetrics(t, res.Metrics, s.EndToEnd)
			again, _ := smoke(t, w.Name, false)
			if a, b := digestOf(t, lines), digestOf(t, again); a != b {
				t.Errorf("equal seeds printed digests %s and %s", a, b)
			}
			traced, tres := smoke(t, w.Name, true)
			assertMetrics(t, tres.Metrics, s.PerLayer)
			if a, b := digestOf(t, lines), digestOf(t, traced); a != b {
				t.Errorf("traced run's reference digest %s, untraced %s", b, a)
			}
		})
	}
}

// TestLayerTargets checks layers.json, the record of which end-to-end
// metric each per-layer metric should move and on which workloads.
func TestLayerTargets(t *testing.T) {
	s := loadSpec(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var targets map[string]struct {
		Moves   []string `json:"moves"`
		MostOn  []string `json:"most_on"`
		LeastOn []string `json:"least_on"`
	}
	if err := json.Unmarshal(b, &targets); err != nil {
		t.Fatal(err)
	}
	isLayer := map[string]bool{}
	for _, m := range s.PerLayer {
		isLayer[m.Name] = true
	}
	isE2E := map[string]bool{}
	for _, m := range s.EndToEnd {
		isE2E[m.Name] = true
	}
	isWorkload := map[string]bool{}
	for _, w := range s.Workloads {
		isWorkload[w.Name] = true
	}
	for name, tg := range targets {
		if !isLayer[name] {
			t.Errorf("layers.json: %s is not a per-layer metric", name)
		}
		for _, m := range tg.Moves {
			if !isE2E[m] {
				t.Errorf("layers.json: %s moves unknown end-to-end metric %s", name, m)
			}
		}
		for _, w := range append(slices.Clone(tg.MostOn), tg.LeastOn...) {
			if !isWorkload[w] {
				t.Errorf("layers.json: %s names unknown workload %s", name, w)
			}
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{},
		{"-workload", "deep-views", "-trace", "2"},
		{"-workload", "deep-views", "-seconds", "0"},
		{"-workload", "deep-views", "-warmup", "1"},
		{"-workload", "deep-views", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
