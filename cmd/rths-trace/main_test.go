package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rths/internal/cluster"
	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/telemetry"
)

// faultTrace runs the faults-preset shape in-process — lossy queueing
// links, a helper crash, a regional partition, detector on, periodic
// series samples — and returns the trace bytes plus the per-epoch
// metrics.
func faultTrace(t *testing.T, seed uint64) ([]byte, []cluster.EpochMetrics) {
	t.Helper()
	var buf bytes.Buffer
	tracer := telemetry.NewTracer(&buf)
	cfg := cluster.Config{
		Channels: []cluster.ChannelSpec{
			{Name: "c0", Bitrate: 300, InitialPeers: 90},
			{Name: "c1", Bitrate: 300, InitialPeers: 60},
			{Name: "c2", Bitrate: 300, InitialPeers: 45},
			{Name: "c3", Bitrate: 300, InitialPeers: 35},
			{Name: "c4", Bitrate: 300, InitialPeers: 25},
			{Name: "c5", Bitrate: 300, InitialPeers: 20},
			{Name: "c6", Bitrate: 300, InitialPeers: 15},
			{Name: "c7", Bitrate: 300, InitialPeers: 10},
		},
		Helpers:     cluster.UniformHelpers(90, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        seed,
		Switching:   &cluster.SwitchingConfig{SwitchProb: 0.02, ZipfS: 0.8},
		Flash:       []cluster.FlashCrowd{{Stage: 30, Channel: 6, Peers: 60}},
		Link:        distsim.Lossy{DropProb: 0.01, DelayProb: 0.05, MaxDelay: 1},
		LinkSeed:    7,
		Detector:    &cluster.DetectorConfig{SuspectAfter: 3, ReadmitAfter: 40},
		Trace:       tracer,
		SeriesEvery: 5,
	}
	domains := make([]int, len(cfg.Helpers))
	for h := range domains {
		domains[h] = h % 3
	}
	cfg.Faults = &distsim.FaultPlan{
		HelperDomains: domains,
		Crashes:       []distsim.HelperCrash{{Helper: 7, From: 25, Until: 55}},
		Partitions:    []distsim.Partition{{Domain: 2, From: 40, Until: 80}},
		Queueing:      true,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var epochs []cluster.EpochMetrics
	for e := 0; e < 12; e++ {
		m, err := c.RunEpoch()
		if err != nil {
			t.Fatalf("RunEpoch %d: %v", e, err)
		}
		epochs = append(epochs, m)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes(), epochs
}

// render parses trace bytes and renders both output formats.
func render(t *testing.T, trace []byte) (table, jsonOut string, rep Report) {
	t.Helper()
	events, err := parseTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("parseTrace: %v", err)
	}
	rep = analyze(events)
	var tb bytes.Buffer
	renderTable(&tb, rep)
	var jb bytes.Buffer
	if err := run([]string{"-format", "json"}, bytes.NewReader(trace), &jb); err != nil {
		t.Fatalf("run json: %v", err)
	}
	return tb.String(), jb.String(), rep
}

// The acceptance bar: equal-seed reruns of the faults scenario must
// yield byte-identical analyzer output, and the trace-derived per-epoch
// TTR means must agree with the cluster's own MeanTimeToRecover.
func TestFaultsTraceDeterministicAndTTRAgrees(t *testing.T) {
	trace1, epochs := faultTrace(t, 42)
	trace2, _ := faultTrace(t, 42)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("equal-seed traces differ")
	}
	table1, json1, rep := render(t, trace1)
	table2, json2, _ := render(t, trace2)
	if table1 != table2 {
		t.Fatal("equal-seed table reports differ")
	}
	if json1 != json2 {
		t.Fatal("equal-seed json reports differ")
	}

	if rep.TTR == nil || rep.TTR.Count == 0 {
		t.Fatal("no recoveries analyzed; want at least one from the crash/partition schedule")
	}
	if len(rep.Stragglers) == 0 || rep.SeriesSamples == 0 {
		t.Fatal("no straggler ranking; series events missing")
	}
	if rep.BarrierTax <= 0 || rep.BarrierTax >= 1 {
		t.Fatalf("work-proxy barrier tax = %g, want in (0,1) for a skewed audience", rep.BarrierTax)
	}
	if !strings.Contains(table1, "recover@") {
		t.Fatal("table lacks a recovery timeline")
	}
	if !strings.Contains(table1, "straggler in") {
		t.Fatal("table lacks the straggler ranking")
	}

	// Per-epoch agreement, bit-for-bit up to float tolerance: the
	// recover events carry the exact addends the epoch metric averaged.
	byEpoch := map[int]EpochTTR{}
	for _, et := range rep.EpochTTR {
		byEpoch[et.Epoch] = et
	}
	recoveries := 0
	for _, m := range epochs {
		et := byEpoch[m.Epoch]
		if m.MeanTimeToRecover == 0 && et.Count == 0 {
			continue
		}
		recoveries += et.Count
		if math.Abs(et.Mean-m.MeanTimeToRecover) > 1e-12 {
			t.Fatalf("epoch %d: trace TTR mean %g != cluster MeanTimeToRecover %g",
				m.Epoch, et.Mean, m.MeanTimeToRecover)
		}
	}
	if recoveries == 0 {
		t.Fatal("no epoch completed a recovery")
	}
}

func seriesEvent(stage, channel int, v float64) event {
	return event{Stage: stage, Epoch: 0, Kind: "series", Channel: channel,
		Helper: -1, To: -1, Detail: "active_peers", Value: v, HasVal: true}
}

func TestAnalyzeStragglerRanking(t *testing.T) {
	// Two samples over three channels; channel 2 dominates both.
	events := []event{
		seriesEvent(9, 0, 10), seriesEvent(9, 1, 20), seriesEvent(9, 2, 40),
		seriesEvent(19, 0, 10), seriesEvent(19, 1, 10), seriesEvent(19, 2, 30),
	}
	rep := analyze(events)
	if rep.SeriesSamples != 2 {
		t.Fatalf("samples = %d, want 2", rep.SeriesSamples)
	}
	if rep.Stragglers[0].Channel != 2 || rep.Stragglers[0].Straggler != 2 {
		t.Fatalf("top straggler = %+v, want channel 2 in 2 samples", rep.Stragglers[0])
	}
	// Sample 1: sorted work {10,20,40}, median 20, lead (40-20)/40 = .5,
	// idle (30+20+0)/(3*40) = 50/120. Sample 2: {10,10,30}, median 10,
	// lead 20/30, idle 40/90.
	wantLead := (0.5 + 20.0/30.0) / 2
	if math.Abs(rep.Stragglers[0].MeanLead-wantLead) > 1e-12 {
		t.Fatalf("mean lead = %g, want %g", rep.Stragglers[0].MeanLead, wantLead)
	}
	wantTax := (50.0/120.0 + 40.0/90.0) / 2
	if math.Abs(rep.BarrierTax-wantTax) > 1e-12 {
		t.Fatalf("barrier tax = %g, want %g", rep.BarrierTax, wantTax)
	}
}

func TestAnalyzeStragglerTieBreaksLow(t *testing.T) {
	events := []event{
		seriesEvent(9, 0, 30), seriesEvent(9, 1, 30), seriesEvent(9, 2, 10),
	}
	rep := analyze(events)
	if rep.Stragglers[0].Channel != 0 {
		t.Fatalf("tie broke to channel %d, want 0", rep.Stragglers[0].Channel)
	}
}

func TestAnalyzeFlowsAndTruncation(t *testing.T) {
	mig := func(epoch, from, to int) event {
		return event{Stage: epoch * 10, Epoch: epoch, Kind: "migrate",
			Channel: from, Helper: 3, To: to}
	}
	events := []event{
		mig(0, 1, 0), mig(0, 1, 0), mig(1, 0, 2),
		{Stage: 99, Epoch: 9, Kind: "truncated", Channel: -1, Helper: -1, To: -1},
	}
	rep := analyze(events)
	if !rep.Truncated {
		t.Fatal("truncated record not surfaced")
	}
	if rep.TotalMoves != 3 || len(rep.Flows) != 2 {
		t.Fatalf("flows = %+v, total %d", rep.Flows, rep.TotalMoves)
	}
	if f := rep.Flows[0].Flows[0]; f.From != 1 || f.To != 0 || f.Moves != 2 {
		t.Fatalf("epoch 0 flow = %+v, want 1->0 x2", f)
	}
}
