// Command rths-cluster runs the multi-channel cluster runtime — many live
// channels sharing one helper pool, and periodic helper re-allocation
// epochs — and emits one JSON record per epoch on
// stdout (JSON lines), followed by a summary line on stderr.
//
// Usage:
//
//	rths-cluster -preset small
//	rths-cluster -preset scale -epochs 8
//	rths-cluster -channels 20 -peers 2000 -helpers 40 -alloc greedy
//	rths-cluster -preset churn
//	rths-cluster -preset small -churn-arrival 2 -churn-lifetime 50 -churn-switch 0.01
//	rths-cluster -preset views
//	rths-cluster -preset small -view-size 4 -view-refresh 25
//	rths-cluster -preset faults
//	rths-cluster -preset faults -detector-suspect 0
//	rths-cluster -preset faults -fault-loss-links -fault-delay 0.1
//	rths-cluster -preset faults -out epochs.jsonl -trace events.jsonl
//	rths-cluster -preset faults -trace events.jsonl -series-every 10 -trace-max-bytes 10000000
//	rths-cluster -preset scale -metrics-addr 127.0.0.1:9090
//
// Every override flag given on the command line applies, whatever its
// value, and flags left out keep the preset's; a value the engine cannot
// run (-bitrate NaN, -epoch-stages -1) is rejected with an error naming
// the flag.
//
// -metrics-addr serves live observability over HTTP while the run
// executes: /metrics exposes the cluster's instrument set (welfare
// ratio, continuity, max deficit, helpers down, stage-latency histogram,
// distsim message counters, per-channel and per-helper dimensional
// gauges, round-span barrier-tax profile, Go runtime series) in
// Prometheus text format, and /debug/pprof hosts the standard Go
// profiling handlers. ":0" picks a free port; the bound address is
// printed on stderr. -metrics-hold keeps the server up after the run
// finishes so short runs can still be scraped. -trace writes the
// structured lifecycle event stream (epoch boundaries, helper
// migrations, detector suspect/evict/readmit, fault windows, viewer
// churn) as JSON lines; equal-seed traces are byte-identical. -out
// redirects the per-epoch JSON records from stdout to a file.
//
// -series-every N adds periodic per-entity samples to the trace: every N
// stages one `series` record per channel (active_peers, pool_helpers,
// welfare_ratio, continuity) and per helper (assign, down). The samples
// feed rths-trace's straggler ranking and are fully deterministic.
// -trace-max-bytes caps the trace file; when the cap is hit the stream
// ends with a single `truncated` record and later events are dropped.
// Both flags shape the -trace file and are rejected without it.
//
// -view-size bounds every viewer's helper candidate view (the paper's
// §III partial-view model): selection runs on at most that many helpers
// per viewer, with a periodic refresh swapping the least-played in-view
// helper for an unseen one, so learner state stays O(view²) however deep
// the channel pools grow. 0 keeps full views.
//
// -preset faults runs the cluster under an injected fault plan:
// lossy queueing links, one fail-stop helper crash, and a correlated
// regional partition isolating one fault domain of helpers mid-run,
// with the cluster's failure detector evicting unresponsive helpers and
// readmitting them after a probation. The -fault-* flags reshape the
// plan, -fault-loss-links switches late batches from queueing (served
// next round) to loss semantics, and -detector-suspect 0 disables the
// detector to expose the undefended baseline.
//
// With a churn workload configured (-preset churn, or -churn-arrival > 0)
// the run replays a generated Poisson/Zipf viewer trace through the
// cluster engine — joins, departures and channel zaps applied stage by
// stage, composing with the resident Markov switching, flash crowds and
// re-allocation epochs — and emits the same per-epoch JSON records.
//
// Every run steps on the batched distsim runtime, with one node per
// channel manager and per helper; without lossy links, a fault plan or
// the detector its links are perfect. Channel managers fork across cores
// only when the host has several and the stage is big, and a big
// channel's learner updates fork in peer blocks likewise. Neither fork
// touches a random stream or a floating-point sum, so a fixed (-seed) run
// is bit-reproducible on any host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rths"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rths-cluster:", err)
		os.Exit(1)
	}
}

func parseAllocator(name string) (rths.ClusterAllocator, error) {
	switch name {
	case "greedy":
		return rths.ClusterAllocGreedy, nil
	case "proportional":
		return rths.ClusterAllocProportional, nil
	case "static":
		return rths.ClusterAllocStatic, nil
	default:
		return 0, fmt.Errorf("unknown allocator %q (greedy, proportional, static)", name)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("rths-cluster", flag.ContinueOnError)
	fs.SetOutput(errOut)
	preset := fs.String("preset", "small", "scenario preset: small, scale, churn, views or faults")
	channels := fs.Int("channels", 0, "override channel count")
	peers := fs.Int("peers", 0, "override total initial viewers")
	helpers := fs.Int("helpers", 0, "override global helper pool size")
	zipf := fs.Float64("zipf", 0, "override Zipf popularity exponent")
	bitrate := fs.Float64("bitrate", 0, "override per-channel bitrate (kbps)")
	epochs := fs.Int("epochs", 0, "override number of epochs to run")
	epochStages := fs.Int("epoch-stages", 0, "override stages per re-allocation epoch")
	switchProb := fs.Float64("switch-prob", 0, "override per-stage viewer zap probability (0 disables)")
	flashPeers := fs.Int("flash-peers", 0, "override flash-crowd size (0 disables)")
	churnArrival := fs.Float64("churn-arrival", 0, "override trace-replay arrivals per stage (0 disables replay)")
	churnLifetime := fs.Float64("churn-lifetime", 0, "override replayed viewers' mean session length in stages")
	churnSwitch := fs.Float64("churn-switch", 0, "override replayed viewers' per-stage zap probability")
	viewSize := fs.Int("view-size", 0, "override per-viewer helper view bound (0 = full views)")
	viewRefresh := fs.Int("view-refresh", 0, "override view refresh period in stages (0 = engine default, negative disables)")
	faultDomains := fs.Int("fault-domains", 0, "override fault-domain count (helpers striped h mod domains; <2 disables partitions)")
	faultPartDomain := fs.Int("fault-partition-domain", 0, "override the partitioned fault domain")
	faultPartFrom := fs.Int("fault-partition-from", 0, "override the partition window start stage")
	faultPartUntil := fs.Int("fault-partition-until", 0, "override the partition window end stage (<= start disables)")
	faultCrashHelper := fs.Int("fault-crash-helper", 0, "override the crashed helper id")
	faultCrashFrom := fs.Int("fault-crash-from", 0, "override the crash window start stage")
	faultCrashUntil := fs.Int("fault-crash-until", 0, "override the crash window end stage (<= start disables)")
	faultDrop := fs.Float64("fault-drop", 0, "override the per-message drop probability")
	faultDelay := fs.Float64("fault-delay", 0, "override the per-message delay probability")
	faultLossLinks := fs.Bool("fault-loss-links", false, "use loss semantics for late batches (disables queueing)")
	detectorSuspect := fs.Int("detector-suspect", 0, "override the detector's consecutive-miss eviction threshold (0 disables the detector)")
	detectorReadmit := fs.Int("detector-readmit", 0, "override the detector's readmission probation in stages")
	outPath := fs.String("out", "", "write the per-epoch JSON records to this file instead of stdout")
	tracePath := fs.String("trace", "", "write the lifecycle event trace (JSON lines) to this file")
	seriesEvery := fs.Int("series-every", 0, "emit per-channel/per-helper series trace records every N stages (0 disables; needs -trace)")
	traceMaxBytes := fs.Int64("trace-max-bytes", 0, "cap the trace file at this many bytes, sealing it with a truncated record (0 = unbounded)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (\":0\" picks a free port)")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics server up this long after the run completes")
	allocName := fs.String("alloc", "", "allocator: greedy, proportional or static")
	seed := fs.Uint64("seed", 0, "override the preset's seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		if *seriesEvery != 0 {
			return fmt.Errorf("-series-every %d needs -trace: series records go to the trace file", *seriesEvery)
		}
		if *traceMaxBytes != 0 {
			return fmt.Errorf("-trace-max-bytes %d needs -trace: it caps the trace file", *traceMaxBytes)
		}
	}

	var sc rths.ClusterScenario
	switch *preset {
	case "small":
		sc = rths.ClusterSmall()
	case "scale":
		sc = rths.ClusterScale()
	case "churn":
		sc = rths.ClusterChurn()
	case "views":
		sc = rths.ClusterViews()
	case "faults":
		sc = rths.ClusterFaults()
	default:
		return fmt.Errorf("unknown preset %q (small, scale, churn, views, faults)", *preset)
	}
	// Every flag the user set overrides the preset, whatever its value;
	// unset flags keep the preset's. The engine checks the ranges, and
	// its error is prefixed with the flags the user set, so a bad value
	// (-bitrate NaN) is named rather than silently ignored.
	set := make(map[string]bool)
	var given []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		given = append(given, "-"+f.Name+" "+f.Value.String())
	})
	flagged := func(err error) error {
		if len(given) == 0 {
			return err
		}
		return fmt.Errorf("%s: %w", strings.Join(given, " "), err)
	}
	override := func(flag string, apply func()) {
		if set[flag] {
			apply()
		}
	}
	override("channels", func() { sc.Channels = *channels })
	override("peers", func() { sc.TotalPeers = *peers })
	override("helpers", func() { sc.Helpers = *helpers })
	override("zipf", func() { sc.ZipfS = *zipf })
	override("bitrate", func() { sc.Bitrate = *bitrate })
	override("epochs", func() { sc.Epochs = *epochs })
	override("epoch-stages", func() { sc.EpochStages = *epochStages })
	override("switch-prob", func() { sc.SwitchProb = *switchProb })
	override("flash-peers", func() { sc.FlashPeers = *flashPeers })
	override("churn-arrival", func() { sc.ChurnArrivalRate = *churnArrival })
	override("churn-lifetime", func() { sc.ChurnMeanLifetime = *churnLifetime })
	override("churn-switch", func() { sc.ChurnSwitchRate = *churnSwitch })
	if sc.ChurnArrivalRate > 0 && sc.ChurnMeanLifetime <= 0 && !set["churn-lifetime"] {
		sc.ChurnMeanLifetime = 60
	}
	override("view-size", func() { sc.ViewSize = *viewSize })
	override("view-refresh", func() { sc.ViewRefresh = *viewRefresh })
	override("fault-domains", func() { sc.FaultDomains = *faultDomains })
	override("fault-partition-domain", func() { sc.PartitionDomain = *faultPartDomain })
	override("fault-partition-from", func() { sc.PartitionFrom = *faultPartFrom })
	override("fault-partition-until", func() { sc.PartitionUntil = *faultPartUntil })
	override("fault-crash-helper", func() { sc.CrashHelper = *faultCrashHelper })
	override("fault-crash-from", func() { sc.CrashFrom = *faultCrashFrom })
	override("fault-crash-until", func() { sc.CrashUntil = *faultCrashUntil })
	override("fault-drop", func() { sc.LinkDrop = *faultDrop })
	override("fault-delay", func() { sc.LinkDelay = *faultDelay })
	if *faultLossLinks {
		sc.Queueing = false
	}
	override("detector-suspect", func() {
		sc.DetectorSuspect = *detectorSuspect
		if *detectorSuspect == 0 {
			sc.DetectorReadmit = 0
		}
	})
	override("detector-readmit", func() { sc.DetectorReadmit = *detectorReadmit })
	if *allocName != "" {
		kind, err := parseAllocator(*allocName)
		if err != nil {
			return err
		}
		sc.Allocator = kind
	}
	override("seed", func() { sc.Seed = *seed })

	cfg, err := sc.Build()
	if err != nil {
		return flagged(err)
	}
	var srv *rths.TelemetryServer
	if *metricsAddr != "" {
		reg := rths.NewTelemetryRegistry()
		reg.RegisterRuntimeMetrics()
		cfg.Metrics = reg
		srv, err = rths.NewTelemetryServer(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(errOut, "metrics: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
	}
	var tracer *rths.TelemetryTracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = rths.NewTracer(f)
		if *traceMaxBytes > 0 {
			tracer.LimitBytes(*traceMaxBytes)
		}
		cfg.Trace = tracer
		cfg.SeriesEvery = *seriesEvery
	}
	epochOut := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		epochOut = f
	}
	c, err := rths.NewCluster(cfg)
	if err != nil {
		return flagged(err)
	}
	defer c.Close()
	enc := json.NewEncoder(epochOut)
	var encErr error
	var moves, switches, joins, leaves int
	var lateServed, evicted, readmitted, lastDown int
	var lastRatio, lastContinuity, lastMaxDef float64
	observe := func(m rths.ClusterEpochMetrics) {
		if e := enc.Encode(m); e != nil && encErr == nil {
			encErr = e
		}
		moves += m.Moves
		switches += m.Switches
		joins += m.Joins
		leaves += m.Leaves
		lateServed += m.LateServed
		evicted += m.Evicted
		readmitted += m.Readmitted
		lastDown = m.HelpersDown
		lastRatio, lastContinuity, lastMaxDef = m.WelfareRatio, m.Continuity, m.MaxDeficit
	}
	mode := "epochs"
	if w, err := sc.Workload(); err != nil {
		return flagged(err)
	} else if w != nil {
		// Trace-replay churn: the workload's joins/leaves/switches are
		// applied stage by stage, composing with the scenario's resident
		// dynamics and re-allocation boundaries.
		mode = "replay"
		if err := c.Replay(w, sc.Horizon(), observe); err != nil {
			return err
		}
	} else if err := c.Run(sc.Epochs, observe); err != nil {
		return flagged(err)
	}
	if encErr != nil {
		return encErr
	}
	fmt.Fprintf(errOut,
		"cluster: %d channels × %d viewers, %d helpers, alloc=%v view=%d mode=%s | %d epochs × %d stages | moves=%d switches=%d joins=%d leaves=%d | final welfare_ratio=%.4f continuity=%.4f max_deficit=%.0f kbps\n",
		c.NumChannels(), c.ActivePeers(), c.NumHelpers(), sc.Allocator, sc.ViewSize, mode,
		c.Epoch(), sc.EpochStages, moves, switches, joins, leaves, lastRatio, lastContinuity, lastMaxDef)
	if evicted > 0 || readmitted > 0 || lateServed > 0 || lastDown > 0 {
		fmt.Fprintf(errOut,
			"faults: late_served=%d evicted=%d readmitted=%d helpers_down=%d\n",
			lateServed, evicted, readmitted, lastDown)
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return err
		}
		suffix := ""
		if tracer.Truncated() {
			suffix = " (truncated at byte cap)"
		}
		fmt.Fprintf(errOut, "trace: %d events -> %s%s\n", tracer.Events(), *tracePath, suffix)
	}
	if srv != nil && *metricsHold > 0 {
		time.Sleep(*metricsHold)
	}
	return nil
}
