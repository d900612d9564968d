package cluster_test

import (
	"testing"

	"rths/internal/cluster"
	"rths/internal/experiment"
)

// The laptop presets the reference executor models (full views, no
// faults) run on distsim exactly as on the reference, stage by stage.
func TestPresetsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   experiment.ClusterScenario
	}{
		{"small", experiment.ClusterSmall()},
		{"churn", experiment.ClusterChurn()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sc
			s.Epochs = 2
			cfg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.Workload()
			if err != nil {
				t.Fatal(err)
			}
			epochs := cluster.CrossCheck(t, cfg, func(c *cluster.Cluster, observe func(cluster.EpochMetrics)) error {
				if w != nil {
					return c.Replay(w, s.Horizon(), observe)
				}
				return c.Run(s.Epochs, observe)
			})
			if len(epochs) != s.Epochs {
				t.Fatalf("%d epochs, want %d", len(epochs), s.Epochs)
			}
		})
	}
}
