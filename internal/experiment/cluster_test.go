package experiment

import (
	"testing"

	"rths/internal/cluster"
	"rths/internal/distsim"
)

// TestPresetsBitIdenticalOnDistsim is the presets' link-parity pin. The
// small, churn and views presets set no link; the same config behind a
// perfect link (distsim.Lossy{}), which runs every link verdict but drops,
// delays and draws nothing, must emit exactly the same epoch records. The
// churn preset replays its workload, as rths-cluster does. (The cluster
// package cross-checks the small and churn presets against its reference
// executor, TestPresetsMatchReference.)
func TestPresetsBitIdenticalOnDistsim(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   ClusterScenario
	}{
		{"small", ClusterSmall()},
		{"churn", ClusterChurn()},
		{"views", ClusterViews()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sc
			s.Epochs = 2
			run := func(link distsim.LinkModel) []cluster.EpochMetrics {
				cfg, err := s.Build()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Link = link
				c, err := cluster.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				var out []cluster.EpochMetrics
				observe := func(m cluster.EpochMetrics) { out = append(out, m) }
				w, err := s.Workload()
				if err != nil {
					t.Fatal(err)
				}
				if w != nil {
					err = c.Replay(w, s.Horizon(), observe)
				} else {
					err = c.Run(s.Epochs, observe)
				}
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			base, perfect := run(nil), run(distsim.Lossy{})
			if len(base) != s.Epochs || len(perfect) != len(base) {
				t.Fatalf("epoch counts: no link %d, perfect link %d, want %d", len(base), len(perfect), s.Epochs)
			}
			for e := range base {
				if perfect[e] != base[e] {
					t.Fatalf("epoch %d diverges:\n perfect link %+v\n no link      %+v", e, perfect[e], base[e])
				}
			}
		})
	}
}
