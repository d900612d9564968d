// Package rths is the public API of the RTHS reproduction — an
// implementation of "Decentralized Adaptive Helper Selection in
// Multi-channel P2P Streaming Systems" (Mostafavi & Dehghan, ICDCS 2014).
//
// The paper's contribution is a decentralized learning rule — regret
// tracking — with which selfish peers choosing among helper micro-servers
// converge to the correlated-equilibrium set of the induced congestion
// game, under Markov-modulated helper bandwidth, using nothing but their
// own realized streaming rates.
//
// # Quick start
//
//	sys, err := rths.NewSystem(rths.SystemConfig{
//		NumPeers: 10,
//		Helpers: []rths.HelperSpec{
//			rths.DefaultHelperSpec(), rths.DefaultHelperSpec(),
//			rths.DefaultHelperSpec(), rths.DefaultHelperSpec(),
//		},
//		Seed: 42,
//	})
//	if err != nil { ... }
//	err = sys.Run(4000, func(r rths.StageResult) {
//		// r.Rates, r.Loads, r.Welfare ...
//	})
//
// Reproduction entry points for the paper's figures live behind Scenario
// (see SmallScale and LargeScale) and the Fig1..Fig5 runners; the
// comparison baselines and ablations are exposed through the same surface.
// Everything is deterministic given Seed.
package rths

import (
	"io"

	"rths/internal/alloc"
	"rths/internal/cluster"
	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/experiment"
	"rths/internal/metrics"
	"rths/internal/regret"
	"rths/internal/streaming"
	"rths/internal/telemetry"
	"rths/internal/trace"
	"rths/internal/xrand"
)

// Core system types.
type (
	// SystemConfig configures a single-channel helper-selection system.
	SystemConfig = core.Config
	// System is a running helper-selection simulation.
	System = core.System
	// HelperSpec describes one helper's Markov bandwidth process.
	HelperSpec = core.HelperSpec
	// StageResult is the per-stage global view.
	StageResult = core.StageResult
	// Selector is a pluggable per-peer selection policy.
	Selector = core.Selector
	// SelectorFactory builds policies for a system's peers.
	SelectorFactory = core.SelectorFactory
)

// Learning types.
type (
	// Learner is the paper's R2HS regret-tracking learner.
	Learner = regret.Learner
	// LearnerConfig parameterizes a learner (ε, δ, μ, mode).
	LearnerConfig = regret.Config
	// LearnerMode selects tracking / matching / paper-exact averaging.
	LearnerMode = regret.Mode
)

// Learner modes.
const (
	ModeTracking   = regret.ModeTracking
	ModeMatching   = regret.ModeMatching
	ModePaperExact = regret.ModePaperExact
)

// Experiment types.
type (
	// Scenario is a reproduction scenario (population, horizon, bandwidth).
	Scenario = experiment.Scenario
	// Table is a rendered experiment artifact.
	Table = experiment.Table
)

// Distributed-runtime, allocation, workload and streaming types.
type (
	// DistsimConfig configures the batched multi-channel message-passing
	// runtime (channel-manager nodes, per-helper inboxes, migration as
	// control messages).
	DistsimConfig = distsim.Config
	// DistsimChannelConfig describes one distsim channel deployment.
	DistsimChannelConfig = distsim.ChannelConfig
	// DistsimRuntime is the batched message-passing runtime.
	DistsimRuntime = distsim.Runtime
	// DistsimRoundStats is the per-round, per-channel aggregate.
	DistsimRoundStats = distsim.RoundStats
	// LinkModel adjudicates distsim data-plane messages (latency/drops).
	LinkModel = distsim.LinkModel
	// LossyLink is the iid drop/delay link model.
	LossyLink = distsim.Lossy
	// FaultPlan is the deterministic fault schedule layered on the link
	// model: fail-stop helper crashes with recovery, regional partitions
	// over fault domains, and queueing semantics for late batches.
	FaultPlan = distsim.FaultPlan
	// HelperCrash schedules one fail-stop helper episode.
	HelperCrash = distsim.HelperCrash
	// FaultPartition schedules one regional partition window.
	FaultPartition = distsim.Partition
	// ChannelDemand is one channel's aggregate demand for helper allocation.
	ChannelDemand = alloc.Channel
	// ChurnConfig parameterizes workload generation.
	ChurnConfig = trace.ChurnConfig
	// Workload is a replayable churn trace.
	Workload = trace.Workload
	// Server is the origin server absorbing unmet demand.
	Server = streaming.Server
	// Buffer is a peer's playout buffer.
	Buffer = streaming.Buffer
	// RegretAudit computes clairvoyant regrets from the global view.
	RegretAudit = metrics.RegretAudit
	// Rand is the deterministic random stream that drives all sampling
	// (xoshiro256**; every component takes one so runs replay from a seed).
	Rand = xrand.Rand
)

// NewSystem builds a single-channel helper-selection system. With a nil
// Factory every peer runs the paper's RTHS learner with calibrated
// defaults. SystemConfig.ViewSize bounds each peer's helper candidate
// view (the paper's §III partial-view model): 0 wires every learner to
// the full helper set; a positive bound keeps per-peer learner state at
// O(ViewSize²) however large the pool grows. Views engage whenever the
// pool exceeds the bound — at construction, or lazily when AddHelper
// growth first crosses it (learners then shrink their views, keeping
// their highest-probability helpers). A bound the pool never exceeds is
// exactly the full-view engine, bit-for-bit.
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// DefaultHelperSpec is the paper's [700,800,900] kbps slowly-switching
// helper bandwidth process.
func DefaultHelperSpec() HelperSpec { return core.DefaultHelperSpec() }

// NewLearner builds a standalone R2HS learner (e.g. to embed in another
// system). See DefaultLearnerConfig.
func NewLearner(cfg LearnerConfig) (*Learner, error) { return regret.New(cfg) }

// DefaultLearnerConfig returns the calibrated learner parameters for the
// given action count and utility scale (use 1 when utilities are
// normalized).
func DefaultLearnerConfig(numActions int, utilityScale float64) LearnerConfig {
	return regret.Defaults(numActions, utilityScale)
}

// Cluster runtime types (the multi-channel engine with helper
// re-allocation epochs).
type (
	// ClusterConfig configures the multi-channel cluster runtime.
	ClusterConfig = cluster.Config
	// Cluster is the running cluster: channels step every stage (on a
	// channel pool when the host and the stage are big enough) and
	// helpers migrate between channels at epoch boundaries. Results are
	// bit-identical with the pool on or off.
	Cluster = cluster.Cluster
	// ClusterChannelSpec describes one cluster channel.
	ClusterChannelSpec = cluster.ChannelSpec
	// ClusterEpochMetrics is the per-epoch observable record.
	ClusterEpochMetrics = cluster.EpochMetrics
	// ClusterStageTotals is the aggregate-only per-stage view (the
	// allocation-free observation path of Cluster.StepStage/ReplayTotals).
	ClusterStageTotals = cluster.StageTotals
	// ClusterSwitching enables Markov channel-switching viewers.
	ClusterSwitching = cluster.SwitchingConfig
	// ClusterFlashCrowd schedules a flash-crowd event.
	ClusterFlashCrowd = cluster.FlashCrowd
	// ClusterAllocator selects the re-allocation policy.
	ClusterAllocator = cluster.AllocatorKind
	// ClusterDetector enables failure-aware eviction: helpers missing
	// consecutive capacity replies are evicted through the churn path and
	// readmitted after probation, from the distsim runtime's
	// capacity-reply ledger.
	ClusterDetector = cluster.DetectorConfig
	// ClusterScenario parameterizes the cluster presets.
	ClusterScenario = experiment.ClusterScenario
)

// Telemetry types (the runtime observability surface; see
// ClusterConfig.Metrics and ClusterConfig.Trace). Instruments only
// observe — enabling them never changes any deterministic output.
type (
	// TelemetryRegistry holds a run's instrument set and renders it in
	// Prometheus text exposition format.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer serves a registry on /metrics plus the standard
	// pprof handlers under /debug/pprof/.
	TelemetryServer = telemetry.Server
	// TelemetryTracer writes the structured lifecycle event stream (epoch
	// boundaries, migrations, detector verdicts, fault windows, churn) as
	// JSONL; stage-clock timestamps keep equal-seed traces byte-identical.
	TelemetryTracer = telemetry.Tracer
	// TelemetryEvent is one lifecycle trace record.
	TelemetryEvent = telemetry.Event
)

// NewTelemetryRegistry builds an empty instrument registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryServer serves reg on addr (":0" picks a free port); the
// bound address is available via TelemetryServer.Addr.
func NewTelemetryServer(addr string, reg *TelemetryRegistry) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg)
}

// NewTracer builds a lifecycle event tracer writing JSONL to w. Call
// Flush before inspecting or closing the underlying writer.
func NewTracer(w io.Writer) *TelemetryTracer { return telemetry.NewTracer(w) }

// Cluster allocator kinds.
const (
	ClusterAllocGreedy       = cluster.AllocGreedy
	ClusterAllocProportional = cluster.AllocProportional
	ClusterAllocStatic       = cluster.AllocStatic
)

// NewDistsim builds the batched multi-channel message-passing runtime
// directly, for custom deployments and lossy-link experiments. The
// cluster engine runs every channel on it; a nil link or a perfect one
// (LossyLink{}) runs it at zero loss.
func NewDistsim(cfg DistsimConfig) (*DistsimRuntime, error) { return distsim.New(cfg) }

// NewLossyLink validates and builds the iid drop/delay link model for
// distsim deployments. Use it rather than a LossyLink literal with
// nonzero fields: an invalid combination (e.g. DelayProb > 0 with
// MaxDelay 0) is rejected here instead of surfacing mid-run.
func NewLossyLink(dropProb, delayProb float64, maxDelay int) (LossyLink, error) {
	return distsim.NewLossy(dropProb, delayProb, maxDelay)
}

// NewCluster builds the multi-channel cluster runtime.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ZipfChannels builds channel specs whose audiences split totalPeers by a
// Zipf popularity law.
func ZipfChannels(channels, totalPeers int, zipfS, bitrate float64) ([]ClusterChannelSpec, error) {
	return cluster.ZipfChannels(channels, totalPeers, zipfS, bitrate)
}

// UniformHelpers replicates one helper spec n times (a homogeneous pool).
func UniformHelpers(n int, spec HelperSpec) []HelperSpec {
	return cluster.UniformHelpers(n, spec)
}

// ClusterScale is the acceptance-scale cluster scenario (100 channels,
// 10k viewers, 400 shared helpers, Zipf audiences, Markov switching, flash
// crowd).
func ClusterScale() ClusterScenario { return experiment.ClusterScale() }

// ClusterSmall is the laptop-scale cluster smoke scenario.
func ClusterSmall() ClusterScenario { return experiment.ClusterSmall() }

// ClusterChurn is the trace-replay churn scenario: a generated
// Poisson/Zipf viewer workload (joins, departures, channel zaps) replayed
// through Cluster.Replay, composing with Markov switching, a flash crowd
// and helper re-allocation epochs.
func ClusterChurn() ClusterScenario { return experiment.ClusterChurn() }

// ClusterViews is the partial-view scenario: deep per-channel helper
// pools with every viewer selecting over a bounded candidate view (the
// paper's §III view model, SystemConfig.ViewSize), so learner state is
// O(view²) instead of O(pool²) and helper migration touches only the
// viewers whose views contain the moved helper.
func ClusterViews() ClusterScenario { return experiment.ClusterViews() }

// ClusterFaults is the fault-injection and recovery scenario: lossy
// queueing links, the helper pool striped across fault domains, a
// scheduled fail-stop helper crash, a regional partition over two epochs,
// and the failure detector evicting unresponsive helpers and readmitting
// them after probation. Set DetectorSuspect = 0 for the
// detector-disabled baseline.
func ClusterFaults() ClusterScenario { return experiment.ClusterFaults() }

// DefaultViewRefresh is the default partial-view refresh period in stages
// (see SystemConfig.ViewRefresh).
const DefaultViewRefresh = core.DefaultViewRefresh

// AllocateHelpers assigns a helper pool to channels greedily by largest
// remaining deficit (the paper's §V future work: helper-level bandwidth
// allocation above peer-level selection). It returns helper -> channel.
func AllocateHelpers(channels []ChannelDemand, capacities []float64) ([]int, error) {
	return alloc.Greedy(channels, capacities)
}

// SplitHelperPool returns per-channel helper counts proportional to the
// channels' demands (largest-remainder rounding).
func SplitHelperPool(channels []ChannelDemand, poolSize int) ([]int, error) {
	return alloc.Proportional(channels, poolSize)
}

// GenerateChurn produces a replayable workload trace.
func GenerateChurn(cfg ChurnConfig) (*Workload, error) { return trace.GenerateChurn(cfg) }

// NewServer builds an origin server with the given capacity (kbps).
func NewServer(capacity float64) (*Server, error) { return streaming.NewServer(capacity) }

// NewBuffer builds a playout buffer for the given bitrate and startup
// threshold (stages of media).
func NewBuffer(bitrate, startupStages float64) (*Buffer, error) {
	return streaming.NewBuffer(bitrate, startupStages)
}

// NewRand returns a deterministic random stream for standalone learners.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewRegretAudit sizes a clairvoyant regret audit.
func NewRegretAudit(numPeers, numHelpers int) (*RegretAudit, error) {
	return metrics.NewRegretAudit(numPeers, numHelpers)
}

// SmallScale is the paper's Fig-2 scenario (N=10 peers, H=4 helpers).
func SmallScale() Scenario { return experiment.SmallScale() }

// LargeScale is the Fig-1 scenario (N=200 peers, H=20 helpers).
func LargeScale() Scenario { return experiment.LargeScale() }

// Figure runners (paper evaluation artifacts).
var (
	// Fig1 reproduces the worst-player regret decay.
	Fig1 = experiment.Fig1
	// Fig2 reproduces the welfare-vs-centralized-MDP comparison.
	Fig2 = experiment.Fig2
	// Fig3 reproduces the helper load distribution.
	Fig3 = experiment.Fig3
	// Fig4 reproduces the per-peer bandwidth fairness.
	Fig4 = experiment.Fig4
	// Fig5 reproduces the server-load-vs-deficit comparison.
	Fig5 = experiment.Fig5
)

// Ablation runners (design-choice experiments from DESIGN.md).
var (
	// AblationPolicies compares RTHS with the baseline policies (A1).
	AblationPolicies = experiment.AblationPolicies
	// AblationShift measures adaptation to a capacity swap (A2).
	AblationShift = experiment.AblationShift
	// AblationSweep grids over (ε, δ, μ) (A3).
	AblationSweep = experiment.AblationSweep
	// AblationRecursion compares decayed vs literal eq. 3-5 updates (A4).
	AblationRecursion = experiment.AblationRecursion
)
