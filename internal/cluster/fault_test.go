package cluster

import (
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
)

// faultConfig is the recovery-experiment shape: an 8-channel, 90-helper
// deployment (the faults preset's scale) under lossy queueing links, one
// fail-stop helper crash, and a regional partition cutting off one of
// three helper fault domains mid-run. Short epochs put several
// re-allocation boundaries strictly inside the partition window so the
// experiment can compare detector-on and detector-off behaviour while
// the partition is active.
func faultConfig(seed uint64, detector bool) Config {
	cfg := Config{
		Channels: []ChannelSpec{
			{Name: "c0", Bitrate: 300, InitialPeers: 90},
			{Name: "c1", Bitrate: 300, InitialPeers: 60},
			{Name: "c2", Bitrate: 300, InitialPeers: 45},
			{Name: "c3", Bitrate: 300, InitialPeers: 35},
			{Name: "c4", Bitrate: 300, InitialPeers: 25},
			{Name: "c5", Bitrate: 300, InitialPeers: 20},
			{Name: "c6", Bitrate: 300, InitialPeers: 15},
			{Name: "c7", Bitrate: 300, InitialPeers: 10},
		},
		Helpers:     UniformHelpers(90, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        seed,
		Switching:   &SwitchingConfig{SwitchProb: 0.02, ZipfS: 0.8},
		Flash:       []FlashCrowd{{Stage: 30, Channel: 6, Peers: 60}},
		Link:        distsim.Lossy{DropProb: 0.01, DelayProb: 0.05, MaxDelay: 1},
		LinkSeed:    7,
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
	if detector {
		cfg.Detector = &DetectorConfig{SuspectAfter: 3, ReadmitAfter: 40}
	}
	return cfg
}

func TestFaultConfigValidation(t *testing.T) {
	t.Run("detector rejects negatives", func(t *testing.T) {
		cfg := fourChannelConfig(1, nil)
		cfg.Detector = &DetectorConfig{SuspectAfter: -1}
		if _, err := New(cfg); err == nil {
			t.Fatal("negative SuspectAfter accepted")
		}
		cfg.Detector = &DetectorConfig{ReadmitAfter: -1}
		if _, err := New(cfg); err == nil {
			t.Fatal("negative ReadmitAfter accepted")
		}
	})
	t.Run("invalid plan surfaces", func(t *testing.T) {
		cfg := fourChannelConfig(1, nil)
		cfg.Faults = &distsim.FaultPlan{HelperDomains: []int{0}}
		if _, err := New(cfg); err == nil {
			t.Fatal("fault plan with wrong domain length accepted")
		}
	})
}

// TestFaultRunReproducible pins that the full fault stack — lossy
// queueing links, crash, partition, detector-driven eviction and
// readmission — replays bit-identically from equal seeds: the fault plan
// consumes no randomness and the detector only reads the deterministic
// reply ledger.
func TestFaultRunReproducible(t *testing.T) {
	run := func() []EpochMetrics {
		c, err := New(faultConfig(211, true))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []EpochMetrics
		if err := c.Run(12, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run()
	evicted, readmitted, late := 0, 0, 0
	for _, m := range ref {
		evicted += m.Evicted
		readmitted += m.Readmitted
		late += m.LateServed
	}
	if evicted == 0 || readmitted == 0 || late == 0 {
		t.Fatalf("scenario inert (evicted=%d readmitted=%d late_served=%d); parity test does not cover the fault machinery",
			evicted, readmitted, late)
	}
	got := run()
	if len(got) != len(ref) {
		t.Fatalf("epoch counts differ: %d vs %d", len(got), len(ref))
	}
	for e := range ref {
		if got[e] != ref[e] {
			t.Fatalf("epoch %d diverges:\n got  %+v\n want %+v", e, got[e], ref[e])
		}
	}
}

// TestEmptyFaultPlanMatchesMemory pins that an empty fault plan is
// semantically free: a distsim run carrying &FaultPlan{} (no crashes, no
// partitions, no queueing, clean links) reproduces the per-epoch metrics
// of the run without a plan — which the in-memory reference executor
// cross-checks — bit-identically, fault counters all zero.
func TestEmptyFaultPlanMatchesMemory(t *testing.T) {
	base := crossCheck(t, fourChannelConfig(101, nil), runFor(4))
	cfg := fourChannelConfig(101, nil)
	cfg.Faults = &distsim.FaultPlan{}
	dist := runEpochs(t, cfg, 4)
	if len(dist) != len(base) {
		t.Fatalf("epoch counts differ: %d vs %d", len(dist), len(base))
	}
	for e := range base {
		if dist[e] != base[e] {
			t.Fatalf("epoch %d diverges:\n empty plan %+v\n no plan    %+v", e, dist[e], base[e])
		}
	}
	for e, m := range dist {
		if m.LateServed != 0 || m.FaultMsgs != 0 || m.Suspected != 0 || m.Evicted != 0 ||
			m.Readmitted != 0 || m.HelpersDown != 0 || m.MeanTimeToRecover != 0 {
			t.Fatalf("epoch %d: empty fault plan produced fault metrics: %+v", e, m)
		}
	}
}

// TestDetectorRecoversFromPartition is the recovery experiment's
// acceptance criterion: at an identical fault schedule, the
// detector-enabled cluster must strictly beat the detector-disabled
// baseline on BOTH mean continuity and worst max deficit over the
// re-allocation boundaries that fall strictly inside the partition
// window — evicting the unreachable domain frees the allocator to move
// live helpers onto the starved channels, while the baseline keeps
// routing demand at dead helpers. Recovery must then complete: every
// evicted helper readmitted, none left down, and a positive mean
// time-to-recover recorded.
func TestDetectorRecoversFromPartition(t *testing.T) {
	const (
		partFrom, partUntil = 40, 80
		epochStages, epochs = 10, 12
	)
	run := func(detector bool) (ms []EpochMetrics) {
		c, err := New(faultConfig(211, detector))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Run(epochs, func(m EpochMetrics) { ms = append(ms, m) }); err != nil {
			t.Fatal(err)
		}
		return ms
	}
	det, base := run(true), run(false)
	var detCont, baseCont, detWorst, baseWorst float64
	n := 0
	for e := range det {
		boundary := (e + 1) * epochStages
		if boundary <= partFrom || boundary >= partUntil {
			continue
		}
		n++
		detCont += det[e].Continuity
		baseCont += base[e].Continuity
		if det[e].MaxDeficit > detWorst {
			detWorst = det[e].MaxDeficit
		}
		if base[e].MaxDeficit > baseWorst {
			baseWorst = base[e].MaxDeficit
		}
	}
	if n < 2 {
		t.Fatalf("only %d boundaries inside the partition window; shape broken", n)
	}
	if detCont/float64(n) <= baseCont/float64(n) {
		t.Fatalf("detector continuity %.4f not above baseline %.4f during the partition",
			detCont/float64(n), baseCont/float64(n))
	}
	if detWorst >= baseWorst {
		t.Fatalf("detector worst max deficit %.0f not below baseline %.0f during the partition",
			detWorst, baseWorst)
	}
	evicted, readmitted := 0, 0
	recovered := false
	for _, m := range det {
		evicted += m.Evicted
		readmitted += m.Readmitted
		if m.MeanTimeToRecover > 0 {
			recovered = true
		}
	}
	if evicted == 0 || readmitted != evicted {
		t.Fatalf("recovery incomplete: evicted=%d readmitted=%d", evicted, readmitted)
	}
	if !recovered {
		t.Fatal("no mean time-to-recover recorded")
	}
	if last := det[len(det)-1]; last.HelpersDown != 0 {
		t.Fatalf("%d helpers still down at the end of the run", last.HelpersDown)
	}
	for _, m := range base {
		if m.Suspected != 0 || m.Evicted != 0 || m.Readmitted != 0 || m.HelpersDown != 0 {
			t.Fatalf("detector-disabled baseline produced detector metrics: %+v", m)
		}
	}
}

// TestClusterQueueingBeatsLoss lifts the distsim queueing contract to
// cluster metrics: at equal delay parameters, queueing links realize a
// strictly higher summed welfare ratio than loss-semantics links, and
// the late batches they defer surface in the LateServed epoch counter.
func TestClusterQueueingBeatsLoss(t *testing.T) {
	run := func(queueing bool) (welfare float64, lateServed int) {
		cfg := fourChannelConfig(55, nil)
		cfg.Link = distsim.Lossy{DelayProb: 0.25, MaxDelay: 1}
		cfg.LinkSeed = 13
		cfg.Faults = &distsim.FaultPlan{Queueing: queueing}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		err = c.Run(6, func(m EpochMetrics) {
			welfare += m.WelfareRatio
			lateServed += m.LateServed
		})
		if err != nil {
			t.Fatal(err)
		}
		return welfare, lateServed
	}
	qWelfare, qServed := run(true)
	lWelfare, lServed := run(false)
	if qServed == 0 {
		t.Fatal("queueing run served no late batches")
	}
	if lServed != 0 {
		t.Fatalf("loss run served %d late batches", lServed)
	}
	if qWelfare <= lWelfare {
		t.Fatalf("queueing summed welfare ratio %.4f not above loss %.4f", qWelfare, lWelfare)
	}
}
