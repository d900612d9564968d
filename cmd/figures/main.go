// Command figures regenerates the data behind every figure of the paper's
// evaluation (Fig. 1–5) and the repository's ablations (A1–A4), printing
// the same series the paper plots as aligned text tables.
//
// Usage:
//
//	figures -fig all            # everything (default)
//	figures -fig 2              # one figure
//	figures -fig a1             # one ablation
//	figures -stages 8000 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rths/internal/experiment"
	"rths/internal/regret"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which artifact to regenerate: 1..5, a1..a4, or all")
	stages := fs.Int("stages", 0, "override the scenario horizon (0 = default)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	demand := fs.Float64("demand", 600, "per-peer demand in kbps (Fig 5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stages < 0 {
		return fmt.Errorf("-stages must be at least 0 (0 = default), got %d", *stages)
	}

	scen := func(base experiment.Scenario) experiment.Scenario {
		base.Seed = *seed
		if *stages > 0 {
			base.Stages = *stages
		}
		return base
	}

	want := strings.ToLower(*fig)
	selected := func(name string) bool { return want == "all" || want == name }
	ran := false

	if selected("1") {
		ran = true
		res, err := experiment.Fig1(scen(experiment.LargeScale()))
		if err != nil {
			return err
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("final worst regret: %.3f kbps\n\n", res.Final)
	}
	if selected("2") {
		ran = true
		s := scen(experiment.SmallScale())
		res, err := experiment.Fig2(s)
		if err != nil {
			return fmt.Errorf("fig 2 at -stages %d: %w", s.Stages, err)
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("tail welfare / optimum: %.4f (MDP benchmark %.1f kbps)\n\n", res.TailRatio, res.MDPOptimum)
	}
	if selected("3") {
		ran = true
		res, err := experiment.Fig3(scen(experiment.SmallScale()))
		if err != nil {
			return err
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("tail load CV: %.4f\n\n", res.TailCV)
	}
	if selected("4") {
		ran = true
		res, err := experiment.Fig4(scen(experiment.SmallScale()))
		if err != nil {
			return err
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("Jain fairness index: %.4f\n\n", res.Jain)
	}
	if selected("5") {
		ran = true
		s := scen(experiment.SmallScale())
		s.DemandPerPeer = *demand
		res, err := experiment.Fig5(s)
		if err != nil {
			return err
		}
		if err := res.Table().Render(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("tail server-load / min-deficit: %.4f\n\n", res.TailGapFraction)
	}
	if selected("a1") {
		ran = true
		stats, err := experiment.AblationPolicies(scen(experiment.SmallScale()))
		if err != nil {
			return err
		}
		if err := experiment.PoliciesTable(stats).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if selected("a2") {
		ran = true
		var results []*experiment.ShiftResult
		s := scen(experiment.SmallScale())
		for _, mode := range []regret.Mode{regret.ModeTracking, regret.ModeMatching, regret.ModePaperExact} {
			r, err := experiment.AblationShift(s, mode)
			if err != nil {
				return fmt.Errorf("a2 at -stages %d: %w", s.Stages, err)
			}
			results = append(results, r)
		}
		if err := experiment.ShiftTable(results).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if selected("a3") {
		ran = true
		s := scen(experiment.SmallScale())
		if *stages == 0 {
			s.Stages = 2000 // the sweep runs many cells; keep each modest
		}
		pts, err := experiment.AblationSweep(s,
			[]float64{0.01, 0.02, 0.05},
			[]float64{0.05, 0.1},
			[]float64{0.05, 0.15, 0.5})
		if err != nil {
			return err
		}
		if err := experiment.SweepTable(pts).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if selected("a4") {
		ran = true
		res, err := experiment.AblationRecursion(scen(experiment.SmallScale()))
		if err != nil {
			return err
		}
		if err := experiment.RecursionTable(res).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown -fig %q (want 1..5, a1..a4, or all)", *fig)
	}
	return nil
}
