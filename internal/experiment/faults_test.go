package experiment

import (
	"math"
	"strings"
	"testing"

	"rths/internal/cluster"
)

func TestClusterFaultsPresetBuilds(t *testing.T) {
	s := ClusterFaults()
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Link == nil {
		t.Fatal("faults preset built no link model")
	}
	p := cfg.Faults
	if p == nil {
		t.Fatal("faults preset built no fault plan")
	}
	if !p.Queueing {
		t.Fatal("faults preset lost queueing semantics")
	}
	if len(p.Crashes) != 1 || len(p.Partitions) != 1 {
		t.Fatalf("faults preset plan: %d crashes, %d partitions", len(p.Crashes), len(p.Partitions))
	}
	if len(p.HelperDomains) != s.Helpers {
		t.Fatalf("helper domains %d for %d helpers", len(p.HelperDomains), s.Helpers)
	}
	seen := map[int]bool{}
	for _, d := range p.HelperDomains {
		seen[d] = true
	}
	if len(seen) != s.FaultDomains {
		t.Fatalf("striping covers %d domains, want %d", len(seen), s.FaultDomains)
	}
	if cfg.Detector == nil {
		t.Fatal("faults preset built no detector")
	}
	if cfg.Detector.SuspectAfter != s.DetectorSuspect || cfg.Detector.ReadmitAfter != s.DetectorReadmit {
		t.Fatalf("detector %+v does not match scenario (%d, %d)",
			cfg.Detector, s.DetectorSuspect, s.DetectorReadmit)
	}
	// The built config actually runs.
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFreeScenarioBuildsNoPlan(t *testing.T) {
	cfg, err := ClusterSmall().Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil || cfg.Detector != nil || cfg.Link != nil {
		t.Fatalf("fault-free preset built fault machinery: faults=%v detector=%v link=%v",
			cfg.Faults, cfg.Detector, cfg.Link)
	}
	// Degenerate fault fields stay inert: one domain, empty windows, no
	// queueing — the plan collapses to nil rather than dragging the
	// distsim adjudication path into clean runs.
	s := ClusterSmall()
	s.FaultDomains = 1
	s.CrashFrom, s.CrashUntil = 10, 10
	s.PartitionFrom, s.PartitionUntil = 20, 20
	cfg, err = s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != nil {
		t.Fatalf("degenerate fault fields built a plan: %+v", cfg.Faults)
	}
}

// A partition window must cut something: helpers stripe as h mod
// FaultDomains, so a partition needs at least two domains and a domain
// that holds a helper. Empty windows stay accepted whatever the domain.
func TestPartitionMustCutSomething(t *testing.T) {
	for _, tc := range []struct {
		name          string
		domains, part int
		from, until   int
		wantErr       string
	}{
		{"preset", 3, 2, 40, 80, ""},
		{"domain 0 severs the other stripes", 3, 0, 40, 80, ""},
		{"domain past the stripes", 3, 9, 40, 80, "holds no helper"},
		{"negative domain", 3, -1, 40, 80, "holds no helper"},
		{"single domain", 1, 0, 40, 80, "FaultDomains > 1"},
		{"no domains", 0, 0, 40, 80, "FaultDomains > 1"},
		{"empty window ignores the domain", 1, 9, 40, 40, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ClusterFaults()
			s.FaultDomains, s.PartitionDomain = tc.domains, tc.part
			s.PartitionFrom, s.PartitionUntil = tc.from, tc.until
			_, err := s.Build()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
	// More domains than helpers leaves the high domains empty too.
	s := ClusterFaults()
	s.Channels, s.Helpers = 2, 4
	s.FaultDomains, s.PartitionDomain = 6, 5
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "holds no helper") {
		t.Fatalf("empty high domain: err = %v", err)
	}
}

// A link probability outside [0,1] is rejected naming its field. NaN
// fails every comparison, so it must not read as "no link" and quietly
// run the scenario on perfect links.
func TestLinkProbabilitiesValidated(t *testing.T) {
	for _, tc := range []struct {
		name        string
		drop, delay float64
		wantErr     string
	}{
		{"drop NaN", math.NaN(), 0.05, "LinkDrop"},
		{"delay NaN", 0.01, math.NaN(), "LinkDelay"},
		{"both NaN", math.NaN(), math.NaN(), "LinkDrop"},
		{"drop above 1", 1.5, 0, "LinkDrop"},
		{"delay negative", 0, -0.1, "LinkDelay"},
		{"drop +Inf", math.Inf(1), 0, "LinkDrop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ClusterFaults()
			s.LinkDrop, s.LinkDelay = tc.drop, tc.delay
			if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}

// Zero turns a scenario feature off; any other value turns it on and
// meets the engine's range check, so a NaN or negative value fails
// instead of quietly disabling the feature.
func TestScenarioFeatureValuesValidated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		edit    func(*ClusterScenario)
		wantErr string
	}{
		{"switch NaN", func(s *ClusterScenario) { s.SwitchProb = math.NaN() }, "switchProb=NaN"},
		{"switch negative", func(s *ClusterScenario) { s.SwitchProb = -0.1 }, "switchProb=-0.1"},
		{"flash negative", func(s *ClusterScenario) { s.FlashPeers = -1 }, "flash crowd"},
		{"detector negative", func(s *ClusterScenario) { s.DetectorSuspect = -1 }, "SuspectAfter=-1"},
		{"helpers negative", func(s *ClusterScenario) { s.Helpers = -1 }, "Helpers=-1"},
		{"bitrate NaN", func(s *ClusterScenario) { s.Bitrate = math.NaN() }, "bitrate NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ClusterSmall()
			tc.edit(&s)
			_, err := s.New()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
	s := ClusterChurn()
	for _, rate := range []float64{math.NaN(), -1} {
		s.ChurnArrivalRate = rate
		if _, err := s.Workload(); err == nil || !strings.Contains(err.Error(), "ArrivalRate") {
			t.Fatalf("ChurnArrivalRate %g: err = %v, want one naming ArrivalRate", rate, err)
		}
	}
}
