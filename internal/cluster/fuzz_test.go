package cluster

import (
	"testing"

	"rths/internal/core"
)

// FuzzClusterOps decodes bytes into a short op sequence — Join, Leave,
// Switch, StepStage and RunEpoch, whose boundary migrates helpers — on a
// small full-view cluster, and runs it on distsim and on the reference
// executor side by side. After every stage the two must agree as
// crossCheck requires, and both must keep the invariants their tapes
// check: every helper sits in exactly one channel's pool, the one
// Assignment and ChannelPool report; every channel holds an arena slot
// per peer; every strategy is on the simplex; and welfare never exceeds
// the optimum. After every op both must also keep the director's viewer
// index (viewerIndexErr).
//
// Byte 0 picks the allocator, switching and the epoch length, bytes 1–3
// the initial audiences; every later byte is an op (low digit in base 5)
// with its argument (the rest).
func FuzzClusterOps(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 2, 1, 0, 3, 3, 4},
		{7, 4, 0, 0, 5, 10, 15, 4, 1, 6, 3, 4, 4},
		{1, 3, 3, 3, 3, 2, 7, 4, 9, 14, 3, 4},
		{14, 0, 0, 1, 0, 5, 20, 4, 2, 12, 3, 4, 1, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		if len(data) > 48 {
			data = data[:48] // bound a run's stages
		}
		head := data[0]
		cfg := Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 500, InitialPeers: int(data[1] % 6)},
				{Name: "b", Bitrate: 600, InitialPeers: int(data[2] % 6)},
				{Name: "c", Bitrate: 400, InitialPeers: int(data[3] % 6)},
			},
			Helpers:     UniformHelpers(6, core.DefaultHelperSpec()),
			Allocator:   AllocatorKind(head % 3),
			EpochStages: 1 + int(head/6%4),
			Seed:        uint64(head) + 1,
		}
		if head/3%2 == 1 {
			cfg.Switching = &SwitchingConfig{SwitchProb: 0.1, ZipfS: 0.8}
		}
		w := newTwin(t, cfg)
		defer w.close()
		nextID := 1 << 20
		for _, b := range data[4:] {
			arg := int(b / 5)
			ids := w.dist.viewerIDs
			switch b % 5 {
			case 0:
				w.both(t, func(c *Cluster) error { return c.Join(nextID, arg%3) })
				nextID++
			case 1:
				if len(ids) > 0 {
					id := ids[arg%len(ids)]
					w.both(t, func(c *Cluster) error { return c.Leave(id) })
				}
			case 2:
				if len(ids) > 0 {
					id := ids[arg%len(ids)]
					w.both(t, func(c *Cluster) error { return c.Switch(id, arg%3) })
				}
			case 3:
				w.both(t, func(c *Cluster) error {
					_, err := c.StepStage()
					return err
				})
				w.compareStages(t)
				w.compareLearners(t)
			case 4:
				var epochs []EpochMetrics
				w.both(t, func(c *Cluster) error {
					m, err := c.RunEpoch()
					epochs = append(epochs, m)
					return err
				})
				w.compareStages(t)
				w.compareLearners(t)
				compareEpochs(t, epochs[:1], epochs[1:])
			}
		}
	})
}

// both applies op to the distsim cluster, then to the reference one; the
// two must fail or succeed together, and a failure ends the run.
func (w *twin) both(t *testing.T, op func(*Cluster) error) {
	t.Helper()
	derr, rerr := op(w.dist), op(w.ref)
	if (derr == nil) != (rerr == nil) {
		t.Fatalf("distsim and reference disagree:\n distsim   %v\n reference %v", derr, rerr)
	}
	if derr != nil {
		t.Fatalf("both failed: %v", derr)
	}
	for _, c := range []*Cluster{w.dist, w.ref} {
		if err := viewerIndexErr(c); err != nil {
			t.Fatalf("viewer index: %v", err)
		}
	}
}
