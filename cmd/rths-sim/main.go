// Command rths-sim runs one helper-selection scenario and prints either a
// summary or per-stage CSV. It is the general-purpose entry point for
// exploring the system outside the fixed paper figures.
//
// Usage:
//
//	rths-sim -peers 10 -helpers 4 -stages 4000 -policy rths
//	rths-sim -policy best-response -csv > run.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rths/internal/baseline"
	"rths/internal/core"
	"rths/internal/metrics"
	"rths/internal/regret"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rths-sim:", err)
		os.Exit(1)
	}
}

func policyFactory(name string) (core.SelectorFactory, error) {
	switch name {
	case "rths":
		return nil, nil // core default
	case "matching", "paper-exact":
		mode := regret.ModeMatching
		if name == "paper-exact" {
			mode = regret.ModePaperExact
		}
		return func(_, m int, _ float64) (core.Selector, error) {
			cfg := regret.Defaults(m, 1)
			cfg.Mode = mode
			return regret.New(cfg)
		}, nil
	case "best-response":
		return func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewBestResponse(m)
		}, nil
	case "random":
		return func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewRandom(m)
		}, nil
	case "egreedy":
		return func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewEpsilonGreedy(m, 0.1, 0.1)
		}, nil
	case "least-loaded":
		return func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewLeastLoaded(m)
		}, nil
	case "static":
		return func(i, m int, _ float64) (core.Selector, error) {
			return baseline.NewStatic(m, i%m)
		}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rths-sim", flag.ContinueOnError)
	peers := fs.Int("peers", 10, "number of peers")
	helpers := fs.Int("helpers", 4, "number of helpers")
	stages := fs.Int("stages", 4000, "stages to simulate")
	seed := fs.Uint64("seed", 1, "simulation seed")
	policy := fs.String("policy", "rths",
		"selection policy: rths, matching, paper-exact, best-response, random, egreedy, least-loaded, static")
	demand := fs.Float64("demand", 0, "per-peer demand in kbps (0 disables server accounting)")
	csv := fs.Bool("csv", false, "emit per-stage CSV instead of a summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers < 1 {
		return fmt.Errorf("-peers must be at least 1, got %d", *peers)
	}
	if *helpers < 1 {
		return fmt.Errorf("-helpers must be at least 1, got %d", *helpers)
	}
	if *stages < 1 {
		return fmt.Errorf("-stages must be at least 1, got %d", *stages)
	}

	factory, err := policyFactory(*policy)
	if err != nil {
		return err
	}
	specs := make([]core.HelperSpec, *helpers)
	for j := range specs {
		specs[j] = core.DefaultHelperSpec()
	}
	sys, err := core.New(core.Config{
		NumPeers:      *peers,
		Helpers:       specs,
		Factory:       factory,
		Seed:          *seed,
		DemandPerPeer: *demand,
	})
	if err != nil {
		return err
	}
	audit, err := metrics.NewRegretAudit(*peers, *helpers)
	if err != nil {
		return err
	}

	welfare := metrics.NewSeries("welfare_kbps")
	optimum := metrics.NewSeries("optimum_kbps")
	loadCV := metrics.NewSeries("load_cv")
	jain := metrics.NewSeries("jain")
	serverLoad := metrics.NewSeries("server_load_kbps")

	err = sys.Run(*stages, func(r core.StageResult) {
		if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
			panic(err)
		}
		welfare.Append(r.Welfare)
		optimum.Append(r.OptWelfare)
		loadCV.Append(metrics.BalanceCV(metrics.IntsToFloats(r.Loads)))
		jain.Append(metrics.Jain(r.Rates))
		serverLoad.Append(r.ServerLoad)
	})
	if err != nil {
		return err
	}

	if *csv {
		out, err := metrics.CSV(welfare, optimum, loadCV, jain, serverLoad)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(w, out)
		return err
	}

	// The tail is the second half of the run, and at least its last stage.
	tail := max(1, *stages/2)
	fmt.Fprintf(w, "policy:                 %s\n", *policy)
	fmt.Fprintf(w, "peers × helpers:        %d × %d, %d stages, seed %d\n", *peers, *helpers, *stages, *seed)
	fmt.Fprintf(w, "tail welfare:           %.1f kbps (%.2f%% of stage optimum)\n",
		welfare.TailMean(tail), 100*welfare.TailMean(tail)/optimum.TailMean(tail))
	fmt.Fprintf(w, "tail load CV:           %.4f\n", loadCV.TailMean(tail))
	fmt.Fprintf(w, "tail stage Jain:        %.4f\n", jain.TailMean(tail))
	fmt.Fprintf(w, "audited worst regret:   %.3f kbps\n", audit.WorstRegret())
	fmt.Fprintf(w, "audited mean regret:    %.3f kbps\n", audit.MeanRegret())
	if *demand > 0 {
		fmt.Fprintf(w, "tail server load:       %.1f kbps\n", serverLoad.TailMean(tail))
	}
	return nil
}
