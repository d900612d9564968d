package cluster_test

import (
	"testing"

	"rths/internal/cluster"
	"rths/internal/experiment"
)

// The derived channel fork's gate: never at GOMAXPROCS 1, never on the
// laptop-scale presets (whose stages are too small to pay for the
// fan-out) from their first stage to their last, and on for the scale
// preset with one worker per core.
func TestPoolGateOnPresets(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   experiment.ClusterScenario
	}{
		{"small", experiment.ClusterSmall()},
		{"views", experiment.ClusterViews()},
		{"churn", experiment.ClusterChurn()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.sc.New()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			check := func(when string) {
				for _, procs := range []int{1, 2, 8} {
					if w := cluster.PoolWorkers(c, procs); w != 0 {
						t.Fatalf("%s, GOMAXPROCS %d: pool runs %d workers, want inline", when, procs, w)
					}
				}
			}
			check("first stage")
			observe := func(m cluster.EpochMetrics) { check("after epoch") }
			wl, err := tc.sc.Workload()
			if err != nil {
				t.Fatal(err)
			}
			if wl != nil {
				err = c.Replay(wl, tc.sc.Horizon(), observe)
			} else {
				err = c.Run(tc.sc.Epochs, observe)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("scale", func(t *testing.T) {
		c, err := experiment.ClusterScale().New()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, tc := range []struct{ procs, want int }{{1, 0}, {2, 2}, {4, 4}} {
			if w := cluster.PoolWorkers(c, tc.procs); w != tc.want {
				t.Fatalf("GOMAXPROCS %d: pool runs %d workers, want %d", tc.procs, w, tc.want)
			}
		}
	})
}
