package cluster

import (
	"testing"

	"rths/internal/distsim"
	"rths/internal/trace"
)

// arenaChurnWorkload generates a heavy 4-channel viewer trace — well over
// 10k join/leave/switch events across the horizon — with peer ids far
// above anything the scenario layer allocates.
func arenaChurnWorkload(t *testing.T, horizon int, seed uint64) *trace.Workload {
	t.Helper()
	w, err := trace.GenerateChurn(trace.ChurnConfig{
		Horizon:      horizon,
		ArrivalRate:  8.0,
		MeanLifetime: 30,
		Channels:     4,
		ZipfS:        0.8,
		SwitchRate:   0.08,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.OffsetPeerIDs(1 << 20)
	return w
}

// The arena-compaction satellite at the cluster level: replaying 10k+
// join/leave/switch events with partial views enabled must (a) keep every
// channel's learner arena dense — exactly one occupied slot per resident
// viewer, nothing leaked by departures or migrations — and (b) stay
// bit-identical inline, on the channel pool, and across the memory vs
// distsim backends, so adoption/release/compaction provably never touches the
// trajectory. (The companion 0-alloc pin for non-refresh stages lives at
// the engine level in core's TestArenaDensityAndAllocsUnderChurn, where
// the stage loop is the only moving part.)
func TestArenaDensityAndParityUnderClusterChurn(t *testing.T) {
	const horizon = 800 // 40 epochs at EpochStages=20
	events := 0
	for _, evs := range arenaChurnWorkload(t, horizon, 29).PerStage(horizon) {
		events += len(evs)
	}
	if events < 10000 {
		t.Fatalf("workload carries %d churn events, want >= 10000", events)
	}
	run := func(link distsim.LinkModel, procs int) ([]EpochMetrics, *Cluster) {
		c, err := New(viewsConfig(83, link, 8)) // pool 48 >> view 8: views engaged
		if err != nil {
			t.Fatal(err)
		}
		if link == nil {
			forcePool(t, c, procs)
		}
		w := arenaChurnWorkload(t, horizon, 29)
		var out []EpochMetrics
		if err := c.Replay(w, horizon, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out, c
	}
	checkDense := func(procs int, c *Cluster) {
		b, ok := c.backend.(*memBackend)
		if !ok {
			t.Fatalf("workers=%d: expected memory backend", procs)
		}
		for ci, st := range b.channels {
			a := st.sys.LearnerArena()
			if got, want := a.Len(), st.sys.NumPeers(); got != want {
				t.Fatalf("workers=%d channel %d: arena holds %d slots for %d peers — departed viewers leaked",
					procs, ci, got, want)
			}
		}
	}
	ref, c1 := run(nil, 1)
	checkDense(1, c1)
	c1.Close()
	var joins, leaves, switches int
	for _, m := range ref {
		joins += m.Joins
		leaves += m.Leaves
		switches += m.Switches
	}
	if joins+leaves+switches < 10000 {
		t.Fatalf("replay applied %d events, want >= 10000 (joins=%d leaves=%d switches=%d)",
			joins+leaves+switches, joins, leaves, switches)
	}
	got, c := run(nil, 4)
	checkDense(4, c)
	c.Close()
	if len(got) != len(ref) {
		t.Fatalf("pool epochs %d vs %d", len(got), len(ref))
	}
	for e := range ref {
		if got[e] != ref[e] {
			t.Fatalf("pool epoch %d diverges:\n got  %+v\n want %+v", e, got[e], ref[e])
		}
	}
	dist, cd := run(distsim.Lossy{}, 0)
	cd.Close()
	if len(dist) != len(ref) {
		t.Fatalf("distsim epochs %d vs %d", len(dist), len(ref))
	}
	for e := range ref {
		if dist[e] != ref[e] {
			t.Fatalf("distsim epoch %d diverges:\n distsim %+v\n memory  %+v", e, dist[e], ref[e])
		}
	}
}
