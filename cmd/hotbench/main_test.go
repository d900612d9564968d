package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The full pipeline must produce a parseable report whose stage-engine
// rows are all allocation-free. Two
// rounds, because the allocation pin is the min across rounds: the
// runtime performs rare one-time internal allocations (first collection
// over a freshly grown heap, more so under -race) that can land in a
// single measured window; the engine's own zero-alloc contract is pinned
// exactly by AllocsPerRun tests in internal/core and internal/regret.
func TestBuildAndWriteReport(t *testing.T) {
	rep, err := buildReport(24, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) == 0 || len(rep.Learner) != 3 {
		t.Fatalf("report shape: %d scenarios, %d learner points", len(rep.Scenarios), len(rep.Learner))
	}
	for _, s := range rep.Scenarios {
		if s.StagesPerSec <= 0 || s.NsPerStage <= 0 {
			t.Fatalf("%s: non-positive throughput %+v", s.Name, s)
		}
		if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			t.Errorf("%s: row records gomaxprocs %d, measured under %d", s.Name, s.GOMAXPROCS, runtime.GOMAXPROCS(0))
		}
		if s.AllocsPerStage != 0 {
			t.Errorf("%s: stage engine allocates %g/stage, want 0", s.Name, s.AllocsPerStage)
		}
	}
	for _, l := range rep.Learner {
		if l.NsPerOp <= 0 {
			t.Fatalf("learner m=%d: ns/op %g", l.M, l.NsPerOp)
		}
		if l.AllocsPerOp != 0 {
			t.Errorf("learner m=%d allocates %g/update, want 0", l.M, l.AllocsPerOp)
		}
	}
	// The O(m) claim: going 32 -> 256 (8x m) must stay well below the
	// ~64x growth an O(m²) update would show. The bound is loose (16x)
	// because tiny timed loops are noisy in CI.
	var ns32, ns256 float64
	for _, l := range rep.Learner {
		switch l.M {
		case 32:
			ns32 = l.NsPerOp
		case 256:
			ns256 = l.NsPerOp
		}
	}
	if ns256 > 16*ns32 {
		t.Errorf("learner update scaling 32->256: %.1f -> %.1f ns (>16x) — not O(m)", ns32, ns256)
	}

	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := writeReport(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Report
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v", err)
	}
	if parsed.GoVersion == "" || len(parsed.Scenarios) != len(rep.Scenarios) {
		t.Fatalf("round-tripped report lost fields: %+v", parsed)
	}
	if len(parsed.Cluster) != len(rep.Cluster) || len(rep.Cluster) == 0 {
		t.Fatalf("cluster rows lost in round trip: %d vs %d", len(parsed.Cluster), len(rep.Cluster))
	}
	for _, s := range rep.Cluster {
		if s.StagesPerSec <= 0 || s.PeerStagesPerSec <= 0 {
			t.Fatalf("%s: non-positive cluster throughput %+v", s.Name, s)
		}
		if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			t.Errorf("%s: row records gomaxprocs %d, measured under %d", s.Name, s.GOMAXPROCS, runtime.GOMAXPROCS(0))
		}
	}
	// The distsim acceptance pair and the 1-channel distsim row must be
	// measured (the 5x-of-sequential bound itself is policed by the
	// committed baseline + gate, not a noisy unit-test timing).
	if len(parsed.Distsim) != len(rep.Distsim) || len(rep.Distsim) == 0 {
		t.Fatalf("distsim rows lost in round trip: %d vs %d", len(parsed.Distsim), len(rep.Distsim))
	}
	for _, s := range rep.Distsim {
		if s.StagesPerSec <= 0 || s.PeerStagesPerSec <= 0 {
			t.Fatalf("%s: non-positive distsim throughput %+v", s.Name, s)
		}
	}
	names := make(map[string]bool)
	for _, s := range rep.Cluster {
		names[s.Name] = true
	}
	if !names["cluster-4ch-seq"] || !names["cluster-4ch-distsim"] {
		t.Fatalf("cluster rows missing the distsim acceptance pair: %v", names)
	}
}

// Repeated rounds must keep the minimum as the gate statistic while the
// mean/max fields record the spread across rounds.
func TestMergeRoundsRecordSpread(t *testing.T) {
	rounds := []ScenarioResult{
		{Name: "s", NsPerStage: 300, StagesPerSec: 1e9 / 300, PeerStagesPerSec: 10e9 / 300, AllocsPerStage: 2, BytesPerStage: 64},
		{Name: "s", NsPerStage: 100, StagesPerSec: 1e9 / 100, PeerStagesPerSec: 10e9 / 100, AllocsPerStage: 4, BytesPerStage: 32},
		{Name: "s", NsPerStage: 200, StagesPerSec: 1e9 / 200, PeerStagesPerSec: 10e9 / 200, AllocsPerStage: 3, BytesPerStage: 48},
	}
	var acc []ScenarioResult
	for round, res := range rounds {
		acc = mergeScenario(acc, round, 0, res)
	}
	rep := &Report{Scenarios: acc}
	finishSpreads(rep, len(rounds))
	got := rep.Scenarios[0]
	if got.NsPerStage != 100 || got.PeerStagesPerSec != 10e9/100 || got.BytesPerStage != 32 {
		t.Fatalf("headline figures not the fastest round's: %+v", got)
	}
	if got.NsPerStageMean != 200 || got.NsPerStageMax != 300 {
		t.Fatalf("ns spread wrong: mean %g max %g, want 200/300", got.NsPerStageMean, got.NsPerStageMax)
	}
	if got.AllocsPerStage != 2 || got.AllocsPerStageMean != 3 || got.AllocsPerStageMax != 4 {
		t.Fatalf("allocs spread wrong: min %g mean %g max %g, want 2/3/4",
			got.AllocsPerStage, got.AllocsPerStageMean, got.AllocsPerStageMax)
	}

	var learners []LearnerResult
	for round, ns := range []float64{50, 30, 40} {
		learners = mergeLearner(learners, round, 0, LearnerResult{M: 8, NsPerOp: ns})
	}
	rep = &Report{Learner: learners}
	finishSpreads(rep, 3)
	l := rep.Learner[0]
	if l.NsPerOp != 30 || l.NsPerOpMean != 40 || l.NsPerOpMax != 50 {
		t.Fatalf("learner spread wrong: %+v", l)
	}

	// A single round degenerates to min == mean == max.
	one := mergeCluster(nil, 0, 0, ClusterResult{Name: "c", NsPerStage: 70})
	rep = &Report{Cluster: one}
	finishSpreads(rep, 1)
	c := rep.Cluster[0]
	if c.NsPerStage != 70 || c.NsPerStageMean != 70 || c.NsPerStageMax != 70 {
		t.Fatalf("single-round spread not degenerate: %+v", c)
	}
}

// The gate must cover distsim rows: a regression specific to the batched
// runtime trips it even when every shared-memory row holds.
func TestCompareReportsGatesDistsim(t *testing.T) {
	base := &Report{
		Scenarios: []ScenarioResult{{Name: "mid-seq", PeerStagesPerSec: 1000}},
		Distsim:   []ScenarioResult{{Name: "distsim-1ch-1k", PeerStagesPerSec: 500}},
	}
	fresh := &Report{
		Scenarios: []ScenarioResult{{Name: "mid-seq", PeerStagesPerSec: 1000}},
		Distsim:   []ScenarioResult{{Name: "distsim-1ch-1k", PeerStagesPerSec: 200}},
	}
	fails := compareReports(fresh, base, 0.20)
	if len(fails) != 1 || !strings.Contains(fails[0], "distsim-1ch-1k") {
		t.Fatalf("distsim regression not gated: %v", fails)
	}
}

// The regression gate compares like-named scenarios after normalizing out
// the overall machine-speed factor.
func TestCompareReports(t *testing.T) {
	base := &Report{
		Scenarios: []ScenarioResult{
			{Name: "small-seq", PeerStagesPerSec: 4000},
			{Name: "mid-seq", PeerStagesPerSec: 1000},
		},
		Cluster: []ClusterResult{
			{Name: "cluster-mid-seq", PeerStagesPerSec: 2000},
		},
	}
	// A uniformly 2x slower machine with one path additionally ~40% slower:
	// only that path must fail.
	fresh := &Report{
		Scenarios: []ScenarioResult{
			{Name: "small-seq", PeerStagesPerSec: 2000},
			{Name: "mid-seq", PeerStagesPerSec: 500},
		},
		Cluster: []ClusterResult{
			{Name: "cluster-mid-seq", PeerStagesPerSec: 600}, // 2x machine + real regression
		},
	}
	fails := compareReports(fresh, base, 0.20)
	if len(fails) != 1 {
		t.Fatalf("fails = %v, want exactly the cluster regression", fails)
	}
	if got := fails[0]; !strings.Contains(got, "cluster-mid-seq") || !strings.Contains(got, "tolerance") {
		t.Fatalf("unhelpful failure message: %q", got)
	}
	// A uniform slowdown alone never fails: identical shape, halved speed.
	uniform := &Report{
		Scenarios: []ScenarioResult{
			{Name: "small-seq", PeerStagesPerSec: 2000},
			{Name: "mid-seq", PeerStagesPerSec: 500},
		},
		Cluster: []ClusterResult{
			{Name: "cluster-mid-seq", PeerStagesPerSec: 1000},
		},
	}
	if fails := compareReports(uniform, base, 0.20); len(fails) != 0 {
		t.Fatalf("uniform slowdown tripped the gate: %v", fails)
	}
}

// A scenario name present on only one side is a hard gate failure, not a
// skip: a rename or removal would otherwise silently disable that
// scenario's regression gate.
func TestCompareReportsNameMismatchHardFails(t *testing.T) {
	base := &Report{
		Scenarios: []ScenarioResult{
			{Name: "small-seq", PeerStagesPerSec: 4000},
			{Name: "mid-seq", PeerStagesPerSec: 1000},
			{Name: "retired", PeerStagesPerSec: 500},
		},
	}
	fresh := &Report{
		Scenarios: []ScenarioResult{
			{Name: "small-seq", PeerStagesPerSec: 4000},
			{Name: "mid-seq", PeerStagesPerSec: 1000},
			{Name: "brand-new", PeerStagesPerSec: 2000},
		},
	}
	fails := compareReports(fresh, base, 0.20)
	if len(fails) != 2 {
		t.Fatalf("fails = %v, want the brand-new and retired mismatches", fails)
	}
	for _, want := range []string{"brand-new", "retired"} {
		found := false
		for _, f := range fails {
			if strings.Contains(f, want) && strings.Contains(f, "BENCH_hotpath.json") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no actionable failure naming %q: %v", want, fails)
		}
	}
	// Mismatches fail even when too few rows match for the normalized
	// throughput comparison to run.
	tiny := &Report{Scenarios: []ScenarioResult{{Name: "mid-seq", PeerStagesPerSec: 1}}}
	fails = compareReports(tiny, base, 0.20)
	if len(fails) != 2 {
		t.Fatalf("fails = %v, want the two baseline rows tiny no longer measures", fails)
	}
	// full_run_only rows are likewise ungated in either direction: a -full
	// run gates cleanly against the standard baseline, and a -full
	// baseline gates a standard run.
	fullRun := &Report{Scenarios: []ScenarioResult{
		{Name: "small-seq", PeerStagesPerSec: 4000},
		{Name: "mid-seq", PeerStagesPerSec: 1000},
		{Name: "retired", PeerStagesPerSec: 500},
		{Name: "xlarge-seq", FullOnly: true, PeerStagesPerSec: 100},
	}}
	if fails := compareReports(fullRun, base, 0.20); len(fails) != 0 {
		t.Fatalf("-full run tripped the gate against a standard baseline: %v", fails)
	}
	if fails := compareReports(base, fullRun, 0.20); len(fails) != 0 {
		t.Fatalf("standard run tripped the gate against a -full baseline: %v", fails)
	}
}
