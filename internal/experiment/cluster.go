package experiment

import (
	"fmt"

	"rths/internal/cluster"
	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/trace"
)

// ClusterScenario parameterizes the multi-channel cluster presets: Zipf
// initial audiences, Markov channel-switching viewers, and one flash-crowd
// event aimed at an unpopular channel.
type ClusterScenario struct {
	Channels   int
	TotalPeers int
	Helpers    int
	// HelperLevels overrides the helper bandwidth levels (nil selects
	// core.DefaultLevels). Scale presets use fewer, edge-server-class
	// helpers rather than thousands of 800 kbps boxes: per-channel pools
	// stay small, so the learners' m×m proxy matrices stay small too.
	HelperLevels []float64
	// Hysteresis damps re-allocation: helpers migrate only when the
	// proposal improves the max deficit by more than this many kbps.
	Hysteresis float64
	ZipfS      float64
	Bitrate    float64
	// EpochStages is the re-allocation period; Epochs the run length.
	EpochStages, Epochs int
	// SwitchProb is the per-stage viewer zap probability (0 disables).
	SwitchProb float64
	// FlashStage/FlashChannel/FlashPeers schedule the flash crowd
	// (FlashPeers = 0 disables).
	FlashStage, FlashChannel, FlashPeers int
	// ChurnArrivalRate enables trace-replay churn: the expected number of
	// replayed viewer arrivals per stage (0 disables; the scenario then
	// runs the plain epoch loop). Replay composes with Markov switching,
	// flash crowds and re-allocation epochs.
	ChurnArrivalRate float64
	// ChurnMeanLifetime is the replayed viewers' expected session length in
	// stages.
	ChurnMeanLifetime float64
	// ChurnSwitchRate is the per-stage probability of a trace-generated
	// zap for a replayed viewer. Once joined, replayed viewers are
	// resident like any other, so with SwitchProb > 0 the engine's Markov
	// zapping applies to them too — the effective per-stage zap rate of a
	// replayed viewer is ChurnSwitchRate plus SwitchProb.
	ChurnSwitchRate float64
	// ChurnSeed drives workload generation (kept separate from Seed so the
	// exogenous workload and the engine's internal streams never alias).
	ChurnSeed uint64
	// ViewSize bounds each viewer's helper candidate view inside its
	// channel (0 = full views; see cluster.Config.ViewSize). Partial views
	// keep per-viewer learner state O(ViewSize²) however large the
	// channel pools grow.
	ViewSize int
	// ViewRefresh is the partial-view refresh period in stages (0 =
	// default, negative disables; see cluster.Config.ViewRefresh).
	ViewRefresh int
	Allocator   cluster.AllocatorKind
	Seed        uint64
	// LinkDrop/LinkDelay/LinkMaxDelay parameterize the distsim lossy link
	// model (both zero disables). LinkSeed derives the link streams. A
	// link, a fault plan or a detector makes the built cluster run on the
	// distsim backend (see cluster.Config.Link); Close it to join its node
	// goroutines.
	LinkDrop     float64
	LinkDelay    float64
	LinkMaxDelay int
	LinkSeed     uint64
	// Queueing switches delayed attach batches from loss to queueing
	// semantics (buffered at the helper, served a round late).
	Queueing bool
	// FaultDomains > 1 stripes the helper pool across that many fault
	// domains (helper h in domain h mod FaultDomains; all channel
	// managers in domain 0), the substrate for regional partitions.
	FaultDomains int
	// PartitionDomain/PartitionFrom/PartitionUntil schedule one regional
	// partition: the domain is cut off from the rest for stages
	// [From, Until) (Until <= From disables).
	PartitionDomain, PartitionFrom, PartitionUntil int
	// CrashHelper/CrashFrom/CrashUntil schedule one fail-stop helper
	// crash with recovery at Until (Until <= From disables).
	CrashHelper, CrashFrom, CrashUntil int
	// DetectorSuspect > 0 enables failure-aware eviction with that
	// consecutive-miss threshold; DetectorReadmit is the readmission
	// probation in stages (0 = cluster default).
	DetectorSuspect, DetectorReadmit int
}

// ClusterScale is the tentpole's acceptance shape: 100 channels, 10k
// viewers split by a Zipf(0.8) popularity law, Markov channel switching,
// and a mid-run flash crowd on a cold channel. The pool is provisioned at
// roughly one helper per 2.5 viewers (expected 800 kbps serving ~2.7
// viewers at 300 kbps), so demand and supply are close enough that the
// flash crowd genuinely forces cross-channel re-allocation — a massively
// oversubscribed pool has no move that lowers the max deficit.
func ClusterScale() ClusterScenario {
	return ClusterScenario{
		Channels:   100,
		TotalPeers: 10000,
		// 400 edge-class helpers at ~8 Mbps supply ≈ 3.2 Gbps against the
		// 3 Gbps aggregate demand: balanced enough that the flash crowd
		// genuinely forces cross-channel re-allocation (a massively
		// oversubscribed pool has no move that lowers the max deficit).
		Helpers:      400,
		HelperLevels: []float64{7000, 8000, 9000},
		Hysteresis:   4000, // half a helper of slack before migrating
		ZipfS:        0.8,
		Bitrate:      300,
		EpochStages:  25,
		Epochs:       8,
		SwitchProb:   0.02,
		FlashStage:   60,
		FlashChannel: 90,
		FlashPeers:   500,
		Allocator:    cluster.AllocGreedy,
		Seed:         1,
	}
}

// ClusterSmall is a laptop-scale variant of ClusterScale for quick smoke
// runs: 8 channels, 240 viewers, 90 paper-default helpers (≈ balanced at
// 300 kbps per viewer).
func ClusterSmall() ClusterScenario {
	s := ClusterScale()
	s.Channels = 8
	s.TotalPeers = 240
	s.Helpers = 90
	s.HelperLevels = nil // paper-default 700–900 kbps helpers
	s.Hysteresis = 400
	s.EpochStages = 20
	s.Epochs = 5
	s.FlashStage = 30
	s.FlashChannel = 6
	s.FlashPeers = 60
	return s
}

// ClusterChurn is the trace-replay churn preset: the laptop-scale shape
// driven by a replayable Poisson-arrival / exponential-lifetime /
// channel-zapping workload (the paper's §V viewer model) through
// Cluster.Replay, composing with the resident viewers' Markov switching,
// the flash crowd, and the re-allocation epochs.
func ClusterChurn() ClusterScenario {
	s := ClusterSmall()
	s.ChurnArrivalRate = 1.5
	s.ChurnMeanLifetime = 60
	s.ChurnSwitchRate = 0.01
	s.ChurnSeed = 2
	return s
}

// ClusterViews is the partial-view preset: few channels with deep helper
// pools — the shape that makes full-view learners expensive (per-channel
// m ≈ 32, so a full-view proxy matrix is 32² floats per viewer) — with
// each viewer running on a ViewSize=8 candidate view instead (O(8²)
// state, the §III partial-view model). Markov switching and the flash
// crowd stay on, so views compose with churn and re-allocation.
func ClusterViews() ClusterScenario {
	s := ClusterSmall()
	s.Channels = 4
	s.TotalPeers = 240
	s.Helpers = 128
	s.ViewSize = 8
	s.ViewRefresh = 25
	s.FlashChannel = 3
	return s
}

// ClusterFaults is the fault-injection and recovery preset: the
// laptop-scale shape on the distsim backend with mildly lossy queueing
// links, the helper pool striped across three fault domains, one
// fail-stop helper crash with recovery, a regional partition cutting a
// third of the pool off for two epochs, and the failure detector
// evicting unresponsive helpers and readmitting them after probation.
// Disable the detector (DetectorSuspect = 0) for the baseline the
// recovery experiment measures against.
func ClusterFaults() ClusterScenario {
	s := ClusterSmall()
	s.LinkDrop = 0.01
	s.LinkDelay = 0.05
	s.LinkMaxDelay = 1
	s.LinkSeed = 7
	s.Queueing = true
	s.FaultDomains = 3
	s.PartitionDomain = 2
	s.PartitionFrom = 40
	s.PartitionUntil = 80
	s.CrashHelper = 7
	s.CrashFrom = 25
	s.CrashUntil = 55
	s.DetectorSuspect = 3
	s.DetectorReadmit = 40
	return s
}

// ChurnIDBase is the offset applied to replayed workload peer ids so they
// sit far above anything the scenario layer (initial audiences, flash
// crowds) allocates.
const ChurnIDBase = 1 << 20

// Horizon is the scenario's stage count (Epochs full epochs).
func (s ClusterScenario) Horizon() int { return s.EpochStages * s.Epochs }

// Workload generates the scenario's replayable churn trace over its
// horizon, with peer ids offset by ChurnIDBase. It returns nil when
// ChurnArrivalRate is zero (no replay workload configured).
func (s ClusterScenario) Workload() (*trace.Workload, error) {
	if s.ChurnArrivalRate == 0 {
		return nil, nil
	}
	w, err := trace.GenerateChurn(trace.ChurnConfig{
		Horizon:      s.Horizon(),
		ArrivalRate:  s.ChurnArrivalRate,
		MeanLifetime: s.ChurnMeanLifetime,
		Channels:     s.Channels,
		ZipfS:        s.ZipfS,
		SwitchRate:   s.ChurnSwitchRate,
		Seed:         s.ChurnSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: churn workload: %w", err)
	}
	w.OffsetPeerIDs(ChurnIDBase)
	return w, nil
}

// Build assembles the cluster config for the scenario.
func (s ClusterScenario) Build() (cluster.Config, error) {
	if s.Helpers < 0 {
		return cluster.Config{}, fmt.Errorf("experiment: cluster scenario: Helpers=%d", s.Helpers)
	}
	if s.PartitionUntil > s.PartitionFrom {
		// Helpers stripe as h mod FaultDomains (channel managers sit in
		// domain 0), so a partition cuts something only when there are
		// at least two domains and the chosen one holds a helper.
		if s.FaultDomains <= 1 {
			return cluster.Config{}, fmt.Errorf("experiment: cluster scenario: partition needs FaultDomains > 1, have %d", s.FaultDomains)
		}
		if s.PartitionDomain < 0 || s.PartitionDomain >= min(s.FaultDomains, s.Helpers) {
			return cluster.Config{}, fmt.Errorf("experiment: cluster scenario: partition domain %d holds no helper (%d helpers striped over domains 0..%d)",
				s.PartitionDomain, s.Helpers, s.FaultDomains-1)
		}
	}
	specs, err := cluster.ZipfChannels(s.Channels, s.TotalPeers, s.ZipfS, s.Bitrate)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("experiment: cluster scenario: %w", err)
	}
	helper := core.DefaultHelperSpec()
	if len(s.HelperLevels) > 0 {
		helper = core.HelperSpec{
			Levels:     append([]float64(nil), s.HelperLevels...),
			SwitchProb: core.DefaultSwitchProb,
			InitState:  -1,
		}
	}
	cfg := cluster.Config{
		Channels:    specs,
		Helpers:     cluster.UniformHelpers(s.Helpers, helper),
		Allocator:   s.Allocator,
		EpochStages: s.EpochStages,
		Hysteresis:  s.Hysteresis,
		Seed:        s.Seed,
		ViewSize:    s.ViewSize,
		ViewRefresh: s.ViewRefresh,
	}
	// Zero turns a feature off. Any other value, NaN and negatives too,
	// turns it on and reaches the engine's own range check.
	if s.SwitchProb != 0 {
		cfg.Switching = &cluster.SwitchingConfig{SwitchProb: s.SwitchProb, ZipfS: s.ZipfS}
	}
	if s.FlashPeers != 0 {
		cfg.Flash = []cluster.FlashCrowd{{Stage: s.FlashStage, Channel: s.FlashChannel, Peers: s.FlashPeers}}
	}
	if s.LinkDrop != 0 || s.LinkDelay != 0 {
		link, err := distsim.NewLossy(s.LinkDrop, s.LinkDelay, s.LinkMaxDelay)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("experiment: cluster scenario: LinkDrop=%g, LinkDelay=%g: %w", s.LinkDrop, s.LinkDelay, err)
		}
		cfg.Link = link
		cfg.LinkSeed = s.LinkSeed
	}
	cfg.Faults = s.faultPlan()
	if s.DetectorSuspect != 0 {
		cfg.Detector = &cluster.DetectorConfig{SuspectAfter: s.DetectorSuspect, ReadmitAfter: s.DetectorReadmit}
	}
	return cfg, nil
}

// faultPlan assembles the scenario's distsim fault schedule, or nil when
// no fault feature is configured. Helpers stripe across the fault
// domains (helper h in domain h mod FaultDomains); channel managers all
// live in domain 0, so partitioning a nonzero domain severs exactly that
// helper stripe from every channel.
func (s ClusterScenario) faultPlan() *distsim.FaultPlan {
	crash := s.CrashUntil > s.CrashFrom
	part := s.PartitionUntil > s.PartitionFrom
	if s.FaultDomains <= 1 && !crash && !part && !s.Queueing {
		return nil
	}
	p := &distsim.FaultPlan{Queueing: s.Queueing}
	if s.FaultDomains > 1 {
		doms := make([]int, s.Helpers)
		for h := range doms {
			doms[h] = h % s.FaultDomains
		}
		p.HelperDomains = doms
	}
	if part {
		p.Partitions = []distsim.Partition{{Domain: s.PartitionDomain, From: s.PartitionFrom, Until: s.PartitionUntil}}
	}
	if crash {
		p.Crashes = []distsim.HelperCrash{{Helper: s.CrashHelper, From: s.CrashFrom, Until: s.CrashUntil}}
	}
	return p
}

// New builds the running cluster for the scenario.
func (s ClusterScenario) New() (*cluster.Cluster, error) {
	cfg, err := s.Build()
	if err != nil {
		return nil, err
	}
	return cluster.New(cfg)
}
