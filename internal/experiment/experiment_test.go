package experiment

import (
	"math"
	"strings"
	"testing"

	"rths/internal/regret"
)

// small returns a fast scenario for tests.
func small(seed uint64) Scenario {
	s := SmallScale()
	s.Stages = 1500
	s.Seed = seed
	return s
}

func TestScenarioValidation(t *testing.T) {
	s := small(1)
	s.NumPeers = 0
	if _, err := Fig1(s); err == nil {
		t.Fatal("zero peers accepted")
	}
	s2 := small(1)
	s2.Stages = 0
	if _, err := Fig1(s2); err == nil {
		t.Fatal("zero stages accepted")
	}
	s3 := small(1)
	s3.Levels = nil
	if _, err := Fig1(s3); err == nil {
		t.Fatal("no levels accepted")
	}
}

func TestFig1RegretDecays(t *testing.T) {
	res, err := Fig1(small(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstRegret.Len() == 0 {
		t.Fatal("no samples")
	}
	early := res.WorstRegret.At(2)
	if res.Final >= early {
		t.Fatalf("worst regret did not decay: early %g, final %g", early, res.Final)
	}
	if res.Final > 80 {
		t.Fatalf("final worst regret = %g kbps, want < 80", res.Final)
	}
	tbl := res.Table()
	if len(tbl.Rows) != res.WorstRegret.Len() {
		t.Fatal("table rows mismatch")
	}
}

func TestFig2NearOptimal(t *testing.T) {
	res, err := Fig2(small(5))
	if err != nil {
		t.Fatal(err)
	}
	// The stationary optimum for 4 helpers at E[C]=800 is 3200.
	if math.Abs(res.MDPOptimum-3200) > 1e-6 {
		t.Fatalf("MDPOptimum = %g, want 3200", res.MDPOptimum)
	}
	if res.TailRatio < 0.93 {
		t.Fatalf("tail welfare ratio = %g, want >= 0.93", res.TailRatio)
	}
	if res.TailRatio > 1.0001 {
		t.Fatalf("tail welfare ratio = %g exceeds optimum", res.TailRatio)
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mdp_optimum") {
		t.Fatal("table missing benchmark column")
	}
}

// Fig 2 and A2 average windows cut from half the horizon, so a one-stage
// run would average nothing; both reject it and print numbers from 2 on.
func TestHalfHorizonArtifactsNeedTwoStages(t *testing.T) {
	s := small(1)
	s.Stages = 1
	if _, err := Fig2(s); err == nil {
		t.Fatal("Fig2 accepted a one-stage horizon")
	}
	if _, err := AblationShift(s, regret.ModeTracking); err == nil {
		t.Fatal("AblationShift accepted a one-stage horizon")
	}
	s.Stages = 2
	fig, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	shift, err := AblationShift(s, regret.ModeTracking)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{fig.TailRatio, shift.PreStrongShare, shift.EarlyPostShare, shift.FinalShare, shift.PostRegret} {
		if math.IsNaN(v) {
			t.Fatalf("two-stage horizon gave NaN: Fig2 %+v, A2 %+v", fig.TailRatio, *shift)
		}
	}
}

func TestFig3LoadsBalanced(t *testing.T) {
	res, err := Fig3(small(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanLoads) != 4 || res.FairLoad != 2.5 {
		t.Fatalf("unexpected shape: %v fair %g", res.MeanLoads, res.FairLoad)
	}
	for j, l := range res.MeanLoads {
		if l < res.FairLoad-1.2 || l > res.FairLoad+1.2 {
			t.Fatalf("helper %d mean load %g too far from fair %g", j, l, res.FairLoad)
		}
	}
	if res.TailCV > 0.6 {
		t.Fatalf("tail CV = %g", res.TailCV)
	}
}

func TestFig4RatesFair(t *testing.T) {
	res, err := Fig4(small(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jain < 0.98 {
		t.Fatalf("Jain = %g, want >= 0.98", res.Jain)
	}
	// Mean rates should bracket the fair share.
	for i, r := range res.MeanRates {
		if r < res.FairShare*0.6 || r > res.FairShare*1.4 {
			t.Fatalf("peer %d rate %g vs fair share %g", i, r, res.FairShare)
		}
	}
}

func TestFig5ServerLoadTracksDeficit(t *testing.T) {
	s := small(11)
	s.DemandPerPeer = 300 // total 3000 vs max supply 3600: deficit sometimes positive
	res, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerLoad.Len() != s.Stages {
		t.Fatal("missing samples")
	}
	// Real load is never below the analytic minimum.
	for i := 0; i < res.ServerLoad.Len(); i++ {
		if res.ServerLoad.At(i) < res.MinDeficit.At(i)-1e-9 {
			t.Fatalf("stage %d: load %g below deficit %g", i, res.ServerLoad.At(i), res.MinDeficit.At(i))
		}
	}
	if res.TailGapFraction < 0 {
		t.Fatal("deficit zero but load positive across tail")
	}
}

func TestFig5RequiresDemand(t *testing.T) {
	if _, err := Fig5(small(1)); err == nil {
		t.Fatal("Fig5 without demand accepted")
	}
}

func TestAblationPoliciesOrdering(t *testing.T) {
	s := small(13)
	stats, err := AblationPolicies(s)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyStats{}
	for _, st := range stats {
		byName[st.Policy] = st
	}
	rths, br := byName["rths"], byName["best-response"]
	if rths.SwitchRate >= br.SwitchRate {
		t.Fatalf("RTHS switch rate %g should be below best-response %g", rths.SwitchRate, br.SwitchRate)
	}
	if rths.WelfareFraction < 0.9 {
		t.Fatalf("RTHS welfare fraction = %g", rths.WelfareFraction)
	}
	if byName["static"].SwitchRate != 0 {
		t.Fatalf("static policy switched: %g", byName["static"].SwitchRate)
	}
	tbl := PoliciesTable(stats)
	if len(tbl.Rows) != len(stats) {
		t.Fatal("table rows mismatch")
	}
}

func TestAblationShiftTrackingRecovers(t *testing.T) {
	s := small(17)
	s.Stages = 4000
	track, err := AblationShift(s, regret.ModeTracking)
	if err != nil {
		t.Fatal(err)
	}
	match, err := AblationShift(s, regret.ModeMatching)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-swap both sit near the 2/3 proportional share of the strong helper.
	if track.PreStrongShare < 0.55 || match.PreStrongShare < 0.55 {
		t.Fatalf("pre-swap shares %g / %g, want ~0.67", track.PreStrongShare, match.PreStrongShare)
	}
	// Right after the swap the tracker must have moved much closer to the
	// new 1/3 equilibrium than the matcher.
	if track.EarlyPostShare > match.EarlyPostShare-0.1 {
		t.Fatalf("tracking early share %g should undercut matching %g by >= 0.1",
			track.EarlyPostShare, match.EarlyPostShare)
	}
	if track.PostRegret > match.PostRegret {
		t.Fatalf("tracking post-swap regret %g should be below matching %g",
			track.PostRegret, match.PostRegret)
	}
	tbl := ShiftTable([]*ShiftResult{track, match})
	if len(tbl.Rows) != 2 {
		t.Fatal("shift table rows")
	}
}

func TestAblationSweepShapes(t *testing.T) {
	s := small(19)
	s.Stages = 800
	pts, err := AblationSweep(s, []float64{0.02}, []float64{0.05, 0.1}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d sweep points", len(pts))
	}
	for _, p := range pts {
		if p.WelfareFraction < 0.85 {
			t.Fatalf("sweep point %+v welfare too low", p)
		}
	}
	if tbl := SweepTable(pts); len(tbl.Rows) != 2 {
		t.Fatal("sweep table rows")
	}
}

func TestAblationRecursionBothRun(t *testing.T) {
	s := small(23)
	s.Stages = 1200
	res, err := AblationRecursion(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d recursion results", len(res))
	}
	for _, r := range res {
		if r.WelfareFraction < 0.85 {
			t.Fatalf("%v welfare fraction %g", r.Mode, r.WelfareFraction)
		}
	}
	if tbl := RecursionTable(res); len(tbl.Rows) != 2 {
		t.Fatal("recursion table rows")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddFloatRow(1, 2)
	tbl.AddRow("x", "y")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# demo\n") || !strings.Contains(out, "a  bb") {
		t.Fatalf("render = %q", out)
	}
}

func TestLargeScaleDefaultsValid(t *testing.T) {
	s := LargeScale()
	if s.NumPeers != 200 || s.NumHelpers != 20 {
		t.Fatalf("large scale %d×%d", s.NumPeers, s.NumHelpers)
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
}
