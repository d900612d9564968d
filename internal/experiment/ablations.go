package experiment

import (
	"fmt"

	"rths/internal/baseline"
	"rths/internal/core"
	"rths/internal/metrics"
	"rths/internal/regret"
)

// PolicyStats summarizes one policy's run for the comparison ablations.
type PolicyStats struct {
	Policy string
	// SwitchRate is the per-peer per-stage helper-switch frequency over the
	// tail half — the §III.B oscillation measure.
	SwitchRate float64
	// WelfareFraction is tail welfare / tail stage-optimum.
	WelfareFraction float64
	// LoadCV is the tail mean of the per-stage load coefficient of variation.
	LoadCV float64
	// Jain is the fairness index over per-peer tail mean rates.
	Jain float64
}

// runPolicy measures one policy on the scenario.
func runPolicy(s Scenario, name string, factory core.SelectorFactory) (PolicyStats, error) {
	s.Factory = factory
	sys, err := s.build()
	if err != nil {
		return PolicyStats{}, err
	}
	prev := make([]int, s.NumPeers)
	var (
		switches, decisions int
		welfare, optimum    float64
		cv                  metrics.Welford
	)
	rates := make([]float64, s.NumPeers)
	tailFrom := s.Stages / 2
	err = sys.Run(s.Stages, func(r core.StageResult) {
		if r.Stage >= tailFrom {
			for i, a := range r.Actions {
				if a != prev[i] {
					switches++
				}
				decisions++
				rates[i] += r.Rates[i]
			}
			welfare += r.Welfare
			optimum += r.OptWelfare
			cv.Add(metrics.BalanceCV(metrics.IntsToFloats(r.Loads)))
		}
		copy(prev, r.Actions)
	})
	if err != nil {
		return PolicyStats{}, err
	}
	return PolicyStats{
		Policy:          name,
		SwitchRate:      float64(switches) / float64(decisions),
		WelfareFraction: welfare / optimum,
		LoadCV:          cv.Mean(),
		Jain:            metrics.Jain(rates),
	}, nil
}

// AblationPolicies (A1) compares RTHS against the baselines on the same
// scenario — reproducing the §III.B argument that myopic best response
// oscillates while regret tracking settles.
func AblationPolicies(s Scenario) ([]PolicyStats, error) {
	type entry struct {
		name    string
		factory core.SelectorFactory
	}
	entries := []entry{
		{"rths", nil},
		{"best-response", func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewBestResponse(m)
		}},
		{"random", func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewRandom(m)
		}},
		{"egreedy", func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewEpsilonGreedy(m, 0.1, 0.1)
		}},
		{"least-loaded", func(_, m int, _ float64) (core.Selector, error) {
			return baseline.NewLeastLoaded(m)
		}},
		{"static", func(i, m int, _ float64) (core.Selector, error) {
			return baseline.NewStatic(m, i%m)
		}},
	}
	out := make([]PolicyStats, 0, len(entries))
	for _, e := range entries {
		st, err := runPolicy(s, e.name, e.factory)
		if err != nil {
			return nil, fmt.Errorf("experiment: policy %s: %w", e.name, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// PoliciesTable renders A1.
func PoliciesTable(stats []PolicyStats) *Table {
	t := &Table{
		Title:  "A1 — policy comparison (tail half)",
		Header: []string{"policy", "switch_rate", "welfare_frac", "load_cv", "jain"},
	}
	for _, s := range stats {
		t.AddRow(s.Policy,
			fmt.Sprintf("%.4f", s.SwitchRate),
			fmt.Sprintf("%.4f", s.WelfareFraction),
			fmt.Sprintf("%.4f", s.LoadCV),
			fmt.Sprintf("%.4f", s.Jain))
	}
	return t
}

// ShiftResult is the A2 artifact: a capacity regime change (the strong and
// weak helpers swap bandwidths mid-run) and how each averaging mode
// re-balances. Removing a crashed helper is easy for both modes (the dead
// action leaves the action set); a swap forces the learner to overturn its
// accumulated payoff history, which is exactly where recency weighting
// (tracking) beats uniform averaging (matching).
type ShiftResult struct {
	Mode regret.Mode
	// PreStrongShare is the fraction of peers on helper 0 (initially the
	// 2x-capacity helper) in the window before the swap; the proportional
	// equilibrium share is 2/3.
	PreStrongShare float64
	// EarlyPostShare is helper 0's share in the 500 stages right after the
	// swap (now the weak helper; the equilibrium share is 1/3).
	EarlyPostShare float64
	// FinalShare is helper 0's share over the final 500 stages.
	FinalShare float64
	// PostRegret is the audited worst regret measured only over the
	// post-swap half (fresh audit window).
	PostRegret float64
}

// AblationShift (A2) runs the capacity-swap experiment: helper 0 starts at
// 900 kbps and helper 1 at 450 kbps (fixed levels, no Markov noise, so the
// swap is the only non-stationarity); at mid-run they exchange capacities.
// Both halves need a stage to measure, so the horizon is at least 2.
func AblationShift(s Scenario, mode regret.Mode) (*ShiftResult, error) {
	if s.NumPeers < 3 {
		return nil, fmt.Errorf("experiment: AblationShift needs >= 3 peers, got %d", s.NumPeers)
	}
	if s.Stages < 2 {
		return nil, fmt.Errorf("experiment: AblationShift needs >= 2 stages to swap mid-run, got %d", s.Stages)
	}
	const strong, weak = 900.0, 450.0
	cfg := regret.Defaults(2, 1)
	cfg.Mode = mode
	sys, err := core.New(core.Config{
		NumPeers: s.NumPeers,
		Helpers: []core.HelperSpec{
			{Levels: []float64{strong}},
			{Levels: []float64{weak}},
		},
		Factory: core.LearnerFactory(cfg),
		Seed:    s.Seed,
	})
	if err != nil {
		return nil, err
	}
	swapAt := s.Stages / 2
	res := &ShiftResult{Mode: mode}
	window := 500
	if window > swapAt {
		window = swapAt
	}

	strongLoad := 0.0
	count := 0
	for k := 0; k < swapAt; k++ {
		r, err := sys.Step()
		if err != nil {
			return nil, err
		}
		if k >= swapAt-window {
			strongLoad += float64(r.Loads[0])
			count++
		}
	}
	res.PreStrongShare = strongLoad / float64(count*s.NumPeers)

	// The regime change: capacities swap.
	if err := sys.SetHelperLevels(0, []float64{weak}, 0); err != nil {
		return nil, err
	}
	if err := sys.SetHelperLevels(1, []float64{strong}, 0); err != nil {
		return nil, err
	}

	audit, err := metrics.NewRegretAudit(s.NumPeers, 2)
	if err != nil {
		return nil, err
	}
	early, earlyCount := 0.0, 0
	final, finalCount := 0.0, 0
	for k := swapAt; k < s.Stages; k++ {
		r, err := sys.Step()
		if err != nil {
			return nil, err
		}
		if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
			return nil, err
		}
		if k < swapAt+window {
			early += float64(r.Loads[0])
			earlyCount++
		}
		if k >= s.Stages-window {
			final += float64(r.Loads[0])
			finalCount++
		}
	}
	res.EarlyPostShare = early / float64(earlyCount*s.NumPeers)
	res.FinalShare = final / float64(finalCount*s.NumPeers)
	res.PostRegret = audit.WorstRegret()
	return res, nil
}

// ShiftTable renders A2.
func ShiftTable(results []*ShiftResult) *Table {
	t := &Table{
		Title:  "A2 — capacity swap (helper 0: 900→450 kbps): tracking vs matching",
		Header: []string{"mode", "pre_share(eq 0.67)", "early_post_share", "final_share(eq 0.33)", "post_regret_kbps"},
	}
	for _, r := range results {
		t.AddRow(r.Mode.String(),
			fmt.Sprintf("%.3f", r.PreStrongShare),
			fmt.Sprintf("%.3f", r.EarlyPostShare),
			fmt.Sprintf("%.3f", r.FinalShare),
			fmt.Sprintf("%.2f", r.PostRegret))
	}
	return t
}

// SweepPoint is one cell of the A3 parameter sweep.
type SweepPoint struct {
	Epsilon, Delta, Mu float64
	WelfareFraction    float64
	WorstRegret        float64
}

// AblationSweep (A3) grids over (ε, δ, μ) and reports tail welfare fraction
// and audited worst regret for each combination.
func AblationSweep(s Scenario, epsilons, deltas, mus []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, eps := range epsilons {
		for _, del := range deltas {
			for _, mu := range mus {
				cfg := regret.Config{
					NumActions:  s.NumHelpers,
					StepSize:    eps,
					Exploration: del,
					Mu:          mu,
					Mode:        regret.ModeTracking,
				}
				sc := s
				sc.Learner = &cfg
				sys, err := sc.build()
				if err != nil {
					return nil, err
				}
				audit, err := metrics.NewRegretAudit(s.NumPeers, s.NumHelpers)
				if err != nil {
					return nil, err
				}
				welfare, optimum := 0.0, 0.0
				tailFrom := s.Stages / 2
				err = sys.Run(s.Stages, func(r core.StageResult) {
					if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
						panic(err)
					}
					if r.Stage >= tailFrom {
						welfare += r.Welfare
						optimum += r.OptWelfare
					}
				})
				if err != nil {
					return nil, err
				}
				out = append(out, SweepPoint{
					Epsilon:         eps,
					Delta:           del,
					Mu:              mu,
					WelfareFraction: welfare / optimum,
					WorstRegret:     audit.WorstRegret(),
				})
			}
		}
	}
	return out, nil
}

// SweepTable renders A3.
func SweepTable(points []SweepPoint) *Table {
	t := &Table{
		Title:  "A3 — (ε, δ, μ) sensitivity",
		Header: []string{"epsilon", "delta", "mu", "welfare_frac", "worst_regret"},
	}
	for _, p := range points {
		t.AddFloatRow(p.Epsilon, p.Delta, p.Mu, p.WelfareFraction, p.WorstRegret)
	}
	return t
}

// RecursionResult is the A4 artifact: faithful decayed recursion vs the
// literal paper eq. (3-5) cumulative update.
type RecursionResult struct {
	Mode            regret.Mode
	WelfareFraction float64
	WorstRegret     float64
}

// AblationRecursion (A4) runs tracking and paper-exact modes side by side.
func AblationRecursion(s Scenario) ([]RecursionResult, error) {
	var out []RecursionResult
	for _, mode := range []regret.Mode{regret.ModeTracking, regret.ModePaperExact} {
		cfg := regret.Defaults(s.NumHelpers, 1)
		cfg.Mode = mode
		sc := s
		sc.Learner = &cfg
		sys, err := sc.build()
		if err != nil {
			return nil, err
		}
		audit, err := metrics.NewRegretAudit(s.NumPeers, s.NumHelpers)
		if err != nil {
			return nil, err
		}
		welfare, optimum := 0.0, 0.0
		tailFrom := s.Stages / 2
		err = sys.Run(s.Stages, func(r core.StageResult) {
			if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
				panic(err)
			}
			if r.Stage >= tailFrom {
				welfare += r.Welfare
				optimum += r.OptWelfare
			}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, RecursionResult{
			Mode:            mode,
			WelfareFraction: welfare / optimum,
			WorstRegret:     audit.WorstRegret(),
		})
	}
	return out, nil
}

// RecursionTable renders A4.
func RecursionTable(results []RecursionResult) *Table {
	t := &Table{
		Title:  "A4 — decayed recursion (tracking) vs literal eq. 3-5 (paper-exact)",
		Header: []string{"mode", "welfare_frac", "worst_regret"},
	}
	for _, r := range results {
		t.AddRow(r.Mode.String(),
			fmt.Sprintf("%.4f", r.WelfareFraction),
			fmt.Sprintf("%.4f", r.WorstRegret))
	}
	return t
}
