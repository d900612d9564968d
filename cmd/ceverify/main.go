// Command ceverify audits whether RTHS play empirically converges to the
// correlated-equilibrium set (the paper's central claim, eq. 3-1). It runs
// a small helper-selection game, builds the empirical joint distribution of
// play, and evaluates the CE constraints two ways:
//
//  1. game-theoretically — CE violation of the empirical joint distribution
//     under the expected-capacity stage game (exact eq. 3-1 on a tiny game);
//  2. trajectory-wise — the clairvoyant time-averaged conditional regret
//     audit against the realized capacities.
//
// Both should approach zero as the horizon grows.
package main

import (
	"flag"
	"fmt"
	"os"

	"rths/internal/core"
	"rths/internal/game"
	"rths/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ceverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ceverify", flag.ContinueOnError)
	peers := fs.Int("peers", 6, "number of peers (keep small: the CE check enumerates joint profiles)")
	helpers := fs.Int("helpers", 3, "number of helpers")
	stages := fs.Int("stages", 6000, "stages to simulate")
	seed := fs.Uint64("seed", 1, "simulation seed")
	warmup := fs.Int("warmup", 1000, "stages to discard before collecting the empirical distribution")
	epsilon := fs.Float64("epsilon", 25, "ε (kbps) for the ε-CE verdicts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers < 1 {
		return fmt.Errorf("-peers must be at least 1, got %d", *peers)
	}
	// The empirical joint distribution keys a profile with one byte per
	// action, so the CE check handles at most 256 helpers.
	if *helpers < 1 || *helpers > 256 {
		return fmt.Errorf("-helpers must be in 1..256, got %d", *helpers)
	}
	if *warmup < 0 {
		return fmt.Errorf("-warmup must be at least 0, got %d", *warmup)
	}
	if *warmup >= *stages {
		return fmt.Errorf("warmup %d must be below stages %d", *warmup, *stages)
	}

	specs := make([]core.HelperSpec, *helpers)
	for j := range specs {
		specs[j] = core.DefaultHelperSpec()
	}
	sys, err := core.New(core.Config{NumPeers: *peers, Helpers: specs, Seed: *seed})
	if err != nil {
		return err
	}
	audit, err := metrics.NewRegretAudit(*peers, *helpers)
	if err != nil {
		return err
	}
	dist := game.NewJointDist(*peers)
	meanCaps := make([]float64, *helpers)
	collected := 0

	err = sys.Run(*stages, func(r core.StageResult) {
		if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
			panic(err)
		}
		if r.Stage < *warmup {
			return
		}
		dist.Observe(r.Actions, 1)
		for j, c := range r.Capacities {
			meanCaps[j] += c
		}
		collected++
	})
	if err != nil {
		return err
	}
	for j := range meanCaps {
		meanCaps[j] /= float64(collected)
	}

	stage, err := game.NewHelperGame(*peers, meanCaps)
	if err != nil {
		return err
	}
	violation := game.CEViolation(stage, dist)

	fmt.Printf("empirical play:            %d stages after %d warmup, support %d profiles\n",
		collected, *warmup, dist.SupportSize())
	fmt.Printf("mean helper capacities:    %v kbps\n", fmtFloats(meanCaps))
	fmt.Printf("CE violation (eq. 3-1):    %.3f kbps   -> ε-CE at ε=%.0f: %v\n",
		violation, *epsilon, violation <= *epsilon)
	fmt.Printf("audited worst regret:      %.3f kbps   -> ε-CE at ε=%.0f: %v\n",
		audit.WorstRegret(), *epsilon, audit.EpsilonCE(*epsilon))
	fmt.Printf("audited mean regret:       %.3f kbps\n", audit.MeanRegret())
	return nil
}

func fmtFloats(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f", x)
	}
	return out + "]"
}
