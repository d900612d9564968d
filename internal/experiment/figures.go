package experiment

import (
	"fmt"

	"rths/internal/core"
	"rths/internal/mdp"
	"rths/internal/metrics"
)

// Fig1Result is the Fig. 1 artifact: evolution of the worst player's
// clairvoyant time-averaged regret in a large-scale scenario.
type Fig1Result struct {
	// WorstRegret samples max_i max_{j,k} R_i^n(j,k) (kbps) every
	// SampleEvery stages.
	WorstRegret *metrics.Series
	// MeanRegret samples the across-peer mean of per-peer max regret.
	MeanRegret *metrics.Series
	// SampleEvery is the sampling period in stages.
	SampleEvery int
	// Final is the worst regret at the horizon.
	Final float64
}

// Fig1 runs the large-scale worst-player-regret experiment.
func Fig1(s Scenario) (*Fig1Result, error) {
	sys, err := s.build()
	if err != nil {
		return nil, err
	}
	audit, err := metrics.NewRegretAudit(s.NumPeers, s.NumHelpers)
	if err != nil {
		return nil, err
	}
	sampleEvery := s.Stages / 100
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	res := &Fig1Result{
		WorstRegret: metrics.NewSeries("worst_regret_kbps"),
		MeanRegret:  metrics.NewSeries("mean_regret_kbps"),
		SampleEvery: sampleEvery,
	}
	err = sys.Run(s.Stages, func(r core.StageResult) {
		if err := audit.Observe(r.Actions, r.Loads, r.Capacities); err != nil {
			panic(err) // sizes are fixed by construction
		}
		if (r.Stage+1)%sampleEvery == 0 {
			res.WorstRegret.Append(audit.WorstRegret())
			res.MeanRegret.Append(audit.MeanRegret())
		}
	})
	if err != nil {
		return nil, err
	}
	res.Final = audit.WorstRegret()
	return res, nil
}

// Table renders the downsampled Fig. 1 series.
func (r *Fig1Result) Table() *Table {
	t := &Table{
		Title:  "Fig 1 — evolution of the worst player's regret (kbps)",
		Header: []string{"stage", "worst_regret", "mean_regret"},
	}
	for i := 0; i < r.WorstRegret.Len(); i++ {
		t.AddFloatRow(float64((i+1)*r.SampleEvery), r.WorstRegret.At(i), r.MeanRegret.At(i))
	}
	return t
}

// Fig2Result compares RTHS social welfare against the centralized MDP
// optimum on the paper's small-scale scenario.
type Fig2Result struct {
	// Welfare is the per-stage social welfare (kbps), downsample-friendly.
	Welfare *metrics.Series
	// StageOptimum is the per-stage realized optimum Σ_j C_j(n).
	StageOptimum *metrics.Series
	// MDPOptimum is the stationary expected optimum from the occupation-
	// measure analysis (the flat benchmark line of Fig. 2).
	MDPOptimum float64
	// TailRatio is mean(welfare)/mean(stage optimum) over the last half.
	TailRatio float64
}

// Fig2 runs the welfare-vs-MDP comparison. The tail ratio averages the
// last half of the horizon, so it needs at least 2 stages.
func Fig2(s Scenario) (*Fig2Result, error) {
	if s.Stages < 2 {
		return nil, fmt.Errorf("experiment: Fig2 needs >= 2 stages for a tail half, got %d", s.Stages)
	}
	sys, err := s.build()
	if err != nil {
		return nil, err
	}
	models := make([]mdp.HelperModel, s.NumHelpers)
	for j := range models {
		m, err := mdp.NewHelperModel(s.Levels, s.SwitchProb)
		if err != nil {
			return nil, err
		}
		models[j] = m
	}
	bench, err := mdp.NewBenchmark(s.NumPeers, models)
	if err != nil {
		return nil, err
	}
	opt, err := bench.ExpectedOptimum()
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{
		Welfare:      metrics.NewSeries("welfare_kbps"),
		StageOptimum: metrics.NewSeries("stage_optimum_kbps"),
		MDPOptimum:   opt,
	}
	err = sys.Run(s.Stages, func(r core.StageResult) {
		res.Welfare.Append(r.Welfare)
		res.StageOptimum.Append(r.OptWelfare)
	})
	if err != nil {
		return nil, err
	}
	tail := s.Stages / 2
	res.TailRatio = res.Welfare.TailMean(tail) / res.StageOptimum.TailMean(tail)
	return res, nil
}

// Table renders the downsampled Fig. 2 series with the MDP line.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Fig 2 — RTHS welfare vs centralized MDP optimum (kbps)",
		Header: []string{"stage", "rths_welfare", "stage_optimum", "mdp_optimum"},
	}
	w := r.Welfare.Downsample(50)
	o := r.StageOptimum.Downsample(50)
	for i := range w {
		t.AddFloatRow(w[i][0], w[i][1], o[i][1], r.MDPOptimum)
	}
	return t
}

// Fig3Result is the per-helper load-distribution artifact.
type Fig3Result struct {
	// MeanLoads[j] is helper j's average load over the tail half.
	MeanLoads []float64
	// FairLoad is the even share N/H.
	FairLoad float64
	// LoadCV is the time series of the per-stage load coefficient of
	// variation (sampled like Fig 1).
	LoadCV      *metrics.Series
	SampleEvery int
	// TailCV is the mean CV over the tail half.
	TailCV float64
}

// Fig3 runs the load-distribution experiment.
func Fig3(s Scenario) (*Fig3Result, error) {
	sys, err := s.build()
	if err != nil {
		return nil, err
	}
	sampleEvery := s.Stages / 100
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	res := &Fig3Result{
		MeanLoads:   make([]float64, s.NumHelpers),
		FairLoad:    float64(s.NumPeers) / float64(s.NumHelpers),
		LoadCV:      metrics.NewSeries("load_cv"),
		SampleEvery: sampleEvery,
	}
	tailFrom := s.Stages / 2
	tailStages := 0
	var cvTail metrics.Welford
	err = sys.Run(s.Stages, func(r core.StageResult) {
		cv := metrics.BalanceCV(metrics.IntsToFloats(r.Loads))
		if (r.Stage+1)%sampleEvery == 0 {
			res.LoadCV.Append(cv)
		}
		if r.Stage >= tailFrom {
			tailStages++
			cvTail.Add(cv)
			for j, l := range r.Loads {
				res.MeanLoads[j] += float64(l)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for j := range res.MeanLoads {
		res.MeanLoads[j] /= float64(tailStages)
	}
	res.TailCV = cvTail.Mean()
	return res, nil
}

// Table renders the per-helper mean loads against the fair share.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:  "Fig 3 — mean load per helper (tail half) vs even share",
		Header: []string{"helper", "mean_load", "fair_load"},
	}
	for j, l := range r.MeanLoads {
		t.AddFloatRow(float64(j), l, r.FairLoad)
	}
	return t
}

// Fig4Result is the per-peer bandwidth-share artifact.
type Fig4Result struct {
	// MeanRates[i] is peer i's average received rate (kbps) over the tail.
	MeanRates []float64
	// FairShare is E[total helper capacity]/N.
	FairShare float64
	// Jain is Jain's fairness index over MeanRates.
	Jain float64
}

// Fig4 runs the per-peer fairness experiment.
func Fig4(s Scenario) (*Fig4Result, error) {
	sys, err := s.build()
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{MeanRates: make([]float64, s.NumPeers)}
	tailFrom := s.Stages / 2
	tailStages := 0
	meanCap := 0.0
	err = sys.Run(s.Stages, func(r core.StageResult) {
		if r.Stage < tailFrom {
			return
		}
		tailStages++
		for i, rate := range r.Rates {
			res.MeanRates[i] += rate
		}
		for _, c := range r.Capacities {
			meanCap += c
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range res.MeanRates {
		res.MeanRates[i] /= float64(tailStages)
	}
	res.FairShare = meanCap / float64(tailStages) / float64(s.NumPeers)
	res.Jain = metrics.Jain(res.MeanRates)
	return res, nil
}

// Table renders per-peer mean rates against the fair share.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Fig 4 — mean rate per peer vs fair share (Jain %.4f)", r.Jain),
		Header: []string{"peer", "mean_rate_kbps", "fair_share_kbps"},
	}
	for i, rate := range r.MeanRates {
		t.AddFloatRow(float64(i), rate, r.FairShare)
	}
	return t
}

// Fig5Result is the server-workload artifact.
type Fig5Result struct {
	// ServerLoad and MinDeficit are the per-stage series (kbps).
	ServerLoad, MinDeficit *metrics.Series
	// TailGapFraction is mean(server load)/mean(min deficit) over the tail;
	// the paper's claim is that this stays close to 1.
	TailGapFraction float64
}

// Fig5 runs the server-workload experiment. The scenario must set
// DemandPerPeer; the default used by cmd/figures is 300 kbps.
func Fig5(s Scenario) (*Fig5Result, error) {
	if s.DemandPerPeer <= 0 {
		return nil, fmt.Errorf("experiment: Fig5 requires DemandPerPeer > 0")
	}
	sys, err := s.build()
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		ServerLoad: metrics.NewSeries("server_load_kbps"),
		MinDeficit: metrics.NewSeries("min_deficit_kbps"),
	}
	err = sys.Run(s.Stages, func(r core.StageResult) {
		res.ServerLoad.Append(r.ServerLoad)
		res.MinDeficit.Append(r.MinDeficit)
	})
	if err != nil {
		return nil, err
	}
	tail := s.Stages / 2
	min := res.MinDeficit.TailMean(tail)
	if min > 0 {
		res.TailGapFraction = res.ServerLoad.TailMean(tail) / min
	} else if res.ServerLoad.TailMean(tail) == 0 {
		res.TailGapFraction = 1
	} else {
		res.TailGapFraction = -1 // sentinel: deficit zero but load positive
	}
	return res, nil
}

// Table renders the downsampled Fig. 5 series.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:  "Fig 5 — real server workload vs minimum bandwidth deficit (kbps)",
		Header: []string{"stage", "server_load", "min_deficit"},
	}
	load := r.ServerLoad.Downsample(50)
	min := r.MinDeficit.Downsample(50)
	for i := range load {
		t.AddFloatRow(load[i][0], load[i][1], min[i][1])
	}
	return t
}
