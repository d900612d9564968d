package experiment

import (
	"testing"

	"rths/internal/cluster"
	"rths/internal/distsim"
)

// TestPresetsBitIdenticalOnDistsim is the presets' backend-parity pin. The
// small, churn and views presets build the memory backend; the same config
// with a perfect link runs on distsim and must emit exactly the same epoch
// records. The churn preset replays its workload, as rths-cluster does.
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
			mem, dist := run(nil), run(distsim.Lossy{})
			if len(mem) != s.Epochs || len(dist) != len(mem) {
				t.Fatalf("epoch counts: memory %d, distsim %d, want %d", len(mem), len(dist), s.Epochs)
			}
			for e := range mem {
				if dist[e] != mem[e] {
					t.Fatalf("epoch %d diverges:\n distsim %+v\n memory  %+v", e, dist[e], mem[e])
				}
			}
		})
	}
}
