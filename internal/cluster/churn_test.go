package cluster

import (
	"reflect"
	"slices"
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/trace"
)

// churnWorkload generates a 4-channel trace whose peer ids sit far above
// any id the scenario layer (initial audiences, flash crowds) allocates.
func churnWorkload(t *testing.T, horizon int, seed uint64) *trace.Workload {
	t.Helper()
	w, err := trace.GenerateChurn(trace.ChurnConfig{
		Horizon:      horizon,
		ArrivalRate:  1.0,
		MeanLifetime: 25,
		Channels:     4,
		ZipfS:        0.8,
		SwitchRate:   0.05,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.OffsetPeerIDs(1 << 20)
	return w
}

// TestChurnOpsGlobalIDs exercises the global-id membership surface on both
// backends: joins with sparse ids, duplicate-join and unknown-leave
// rejection, and the atomic Switch (a bad target must not drop the viewer).
func TestChurnOpsGlobalIDs(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 500, InitialPeers: 3},
				{Name: "b", Bitrate: 500, InitialPeers: 2},
			},
			Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
			Link:        link,
			EpochStages: 5,
			Seed:        31,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Join(1000, 0); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Join(1000, 0); err == nil {
			t.Fatalf("backend %v: duplicate join accepted", backend)
		}
		if err := c.Join(1001, 9); err == nil {
			t.Fatalf("backend %v: out-of-range join accepted", backend)
		}
		if err := c.Leave(42); err == nil {
			t.Fatalf("backend %v: unknown leave accepted", backend)
		}
		// Atomic switch: invalid target errors and the viewer stays put.
		for _, bad := range []int{-1, 2} {
			if err := c.Switch(1000, bad); err == nil {
				t.Fatalf("backend %v: switch to channel %d accepted", backend, bad)
			}
		}
		if c.ActivePeers() != 6 || c.ChannelAudience(0) != 4 {
			t.Fatalf("backend %v: failed switch dropped the viewer: active=%d ch0=%d",
				backend, c.ActivePeers(), c.ChannelAudience(0))
		}
		if err := c.Switch(1000, 1); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if c.ChannelAudience(0) != 3 || c.ChannelAudience(1) != 3 {
			t.Fatalf("backend %v: switch not applied: %d/%d",
				backend, c.ChannelAudience(0), c.ChannelAudience(1))
		}
		// Scenario joins allocate low ids, skipping the sparse explicit one.
		if err := c.join(0); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, taken := c.byPeer[5]; !taken {
			t.Fatalf("backend %v: scenario join skipped the lowest free id", backend)
		}
		if err := c.join(0); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, taken := c.byPeer[6]; !taken {
			t.Fatalf("backend %v: scenario ids not sequential", backend)
		}
		// The churned membership steps cleanly (distsim applies the queued
		// ops here).
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Leave(1000); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInitialMembership checks the scenario layer's initial audiences.
func TestInitialMembership(t *testing.T) {
	c := twoChannelCluster(t, 7)
	if c.NumChannels() != 2 || c.ActivePeers() != 10 {
		t.Fatalf("channels=%d active=%d", c.NumChannels(), c.ActivePeers())
	}
	if c.ChannelAudience(0) != 6 || c.ChannelAudience(1) != 4 {
		t.Fatalf("audiences %d/%d", c.ChannelAudience(0), c.ChannelAudience(1))
	}
}

// TestJoinLeaveSwitch drives one viewer through join, switch, no-op switch
// and leave, with the invalid calls in between rejected, and steps on.
func TestJoinLeaveSwitch(t *testing.T) {
	c := twoChannelCluster(t, 13)
	if err := c.Join(100, 0); err != nil {
		t.Fatal(err)
	}
	if c.ActivePeers() != 11 || c.ChannelAudience(0) != 7 {
		t.Fatal("join not applied")
	}
	if err := c.Join(100, 0); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if err := c.Join(101, 9); err == nil {
		t.Fatal("bad channel accepted")
	}
	if err := c.Switch(100, 1); err != nil {
		t.Fatal(err)
	}
	if c.ChannelAudience(0) != 6 || c.ChannelAudience(1) != 5 {
		t.Fatal("switch not applied")
	}
	if err := c.Switch(100, 1); err != nil || c.ChannelAudience(1) != 5 {
		t.Fatalf("no-op switch: err=%v audience=%d", err, c.ChannelAudience(1))
	}
	if err := c.Leave(100); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(100); err == nil {
		t.Fatal("double leave accepted")
	}
	if c.ActivePeers() != 10 {
		t.Fatalf("ActivePeers = %d", c.ActivePeers())
	}
	// The membership maps stay intact: the cluster still steps cleanly.
	for s := 0; s < 50; s++ {
		if _, err := c.StepStage(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSwitchAtomicOnBadTarget pins the atomic Switch: a move to an
// out-of-range channel must error and leave the viewer in its channel — a
// Leave-then-Join sequence would drop it when the Join leg failed.
func TestSwitchAtomicOnBadTarget(t *testing.T) {
	c := twoChannelCluster(t, 19)
	if err := c.Join(100, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 2, 99} {
		if err := c.Switch(100, bad); err == nil {
			t.Fatalf("switch to channel %d accepted", bad)
		}
	}
	if c.ActivePeers() != 11 || c.ChannelAudience(0) != 7 {
		t.Fatalf("failed switch dropped the viewer: active=%d ch0=%d",
			c.ActivePeers(), c.ChannelAudience(0))
	}
	// The viewer is still addressable: a valid switch and a leave both work.
	if err := c.Switch(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(100); err != nil {
		t.Fatal(err)
	}
}

// TestLeaveReindexesCorrectly removes a viewer from the middle of channel
// 0, then the rest of it by id: every remaining id must still resolve
// after the removal reindexes the channel, and the emptied channel steps.
func TestLeaveReindexesCorrectly(t *testing.T) {
	c := twoChannelCluster(t, 17)
	ids := slices.Clone(c.ChannelPeerIDs(0))
	if err := c.Leave(ids[2]); err != nil {
		t.Fatal(err)
	}
	for _, id := range slices.Delete(ids, 2, 3) {
		if err := c.Leave(id); err != nil {
			t.Fatalf("leave %d after reindex: %v", id, err)
		}
	}
	if c.ChannelAudience(0) != 0 {
		t.Fatalf("audience = %d", c.ChannelAudience(0))
	}
	if _, err := c.StepStage(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyUnknownEvent: Apply rejects an event kind it does not know.
func TestApplyUnknownEvent(t *testing.T) {
	c := twoChannelCluster(t, 29)
	if err := c.Apply(trace.Event{Kind: trace.EventKind(99)}); err == nil {
		t.Fatal("unknown event accepted")
	}
}

// TestReplayWorkload replays a churn trace onto four empty channels over
// the full horizon: every stage is observed and the final audience is the
// workload's.
func TestReplayWorkload(t *testing.T) {
	const horizon = 300
	w := churnWorkload(t, horizon, 5)
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 300}, {Name: "b", Bitrate: 300},
			{Name: "c", Bitrate: 300}, {Name: "d", Bitrate: 300},
		},
		Helpers: UniformHelpers(4, core.DefaultHelperSpec()),
		Seed:    23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stages := 0
	if err := c.ReplayTotals(w, horizon, func(StageTotals) { stages++ }); err != nil {
		t.Fatal(err)
	}
	if stages != horizon {
		t.Fatalf("observed %d stages", stages)
	}
	if c.ActivePeers() != w.FinalActive {
		t.Fatalf("final active %d vs workload %d", c.ActivePeers(), w.FinalActive)
	}
}

// TestJoinLeaveSameStage pins the same-stage join+leave edge on both
// backends: the pair must cancel out before the next step — on distsim both
// ops sit in the same round's queue and apply in order.
func TestJoinLeaveSameStage(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 500, InitialPeers: 4},
				{Name: "b", Bitrate: 500, InitialPeers: 4},
			},
			Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
			Link:        link,
			EpochStages: 5,
			Seed:        37,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := c.ActivePeers()
		// Before the first step.
		if err := c.Join(500, 0); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Leave(500); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		// And again mid-run, between two steps.
		if err := c.Join(501, 1); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Leave(501); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if got := c.ActivePeers(); got != before {
			t.Fatalf("backend %v: same-stage join+leave leaked membership: %d vs %d",
				backend, got, before)
		}
		sum := c.ChannelAudience(0) + c.ChannelAudience(1)
		if sum != c.ActivePeers() {
			t.Fatalf("backend %v: audience sum %d vs active %d", backend, sum, c.ActivePeers())
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSwitchIntoFlashCrowdChannel pins the switch-into-a-flash-crowd edge
// on both backends: a viewer switching into the channel in the same stage
// the crowd lands must coexist with the crowd's joins (on distsim, the
// switch's remove+add and the flash joins share one round's op queue).
func TestSwitchIntoFlashCrowdChannel(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "calm", Bitrate: 500, InitialPeers: 6},
				{Name: "flash", Bitrate: 500, InitialPeers: 2},
			},
			Helpers:     UniformHelpers(6, core.DefaultHelperSpec()),
			Link:        link,
			EpochStages: 10,
			Seed:        41,
			Flash:       []FlashCrowd{{Stage: 3, Channel: 1, Peers: 20}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if _, err := c.StepStage(); err != nil {
				t.Fatalf("backend %v: %v", backend, err)
			}
		}
		// Switch a calm viewer in just before the stage whose step injects
		// the crowd: both land within stage 3.
		mover := c.ChannelPeerIDs(0)[0]
		if err := c.Switch(mover, 1); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, err := c.StepStage(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if got, want := c.ChannelAudience(1), 2+20+1; got != want {
			t.Fatalf("backend %v: flash channel audience %d, want %d", backend, got, want)
		}
		if got, want := c.ActivePeers(), 6+2+20; got != want {
			t.Fatalf("backend %v: active %d, want %d", backend, got, want)
		}
		// The swollen channel keeps stepping and the mover can still be
		// addressed by its global id.
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Leave(mover); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoundaryBetweenLeaveAndRejoin pins the epoch-boundary edge: a viewer
// leaves, the boundary re-allocates helpers off its emptied channel, and
// the same global id re-joins afterwards — the id must be re-integrated
// cleanly on the migrated pools, on both backends.
func TestBoundaryBetweenLeaveAndRejoin(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 600, InitialPeers: 8},
				{Name: "b", Bitrate: 600, InitialPeers: 8},
			},
			Helpers:     UniformHelpers(8, core.DefaultHelperSpec()),
			Link:        link,
			EpochStages: 5,
			Seed:        43,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		// Drain most of channel 1 so the boundary migrates helpers to 0.
		departed := append([]int(nil), c.ChannelPeerIDs(1)[:6]...)
		for _, id := range departed {
			if err := c.Leave(id); err != nil {
				t.Fatalf("backend %v: leave %d: %v", backend, id, err)
			}
		}
		m, err := c.RunEpoch() // boundary lands between the leaves and the re-joins
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if m.Leaves != len(departed) {
			t.Fatalf("backend %v: epoch counted %d leaves, want %d", backend, m.Leaves, len(departed))
		}
		if m.Moves == 0 {
			t.Fatalf("backend %v: drained channel triggered no migration", backend)
		}
		// The same global ids come back, onto the post-migration pools.
		for _, id := range departed {
			if err := c.Join(id, 1); err != nil {
				t.Fatalf("backend %v: re-join %d: %v", backend, id, err)
			}
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		if got, want := c.ActivePeers(), 16; got != want {
			t.Fatalf("backend %v: active %d, want %d", backend, got, want)
		}
		if link == nil {
			for ci := 0; ci < c.NumChannels(); ci++ {
				sys := c.backend.(*memBackend).channels[ci].sys
				if sys.NumPeers() != c.ChannelAudience(ci) {
					t.Fatalf("channel %d system has %d peers, director says %d",
						ci, sys.NumPeers(), c.ChannelAudience(ci))
				}
				for i := 0; i < sys.NumPeers(); i++ {
					if got := sys.Selector(i).NumActions(); got != sys.NumHelpers() {
						t.Fatalf("channel %d peer %d has %d actions, pool %d",
							ci, i, got, sys.NumHelpers())
					}
				}
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayShortHorizonDropsLateEvents documents the PerStage contract on
// the cluster replay path: a horizon shorter than the workload silently
// truncates it — events at stages >= horizon are never applied.
func TestReplayShortHorizonDropsLateEvents(t *testing.T) {
	w := churnWorkload(t, 100, 9)
	const horizon = 30
	expected := 0
	for _, e := range w.Events {
		if e.Stage >= horizon {
			continue
		}
		switch e.Kind {
		case trace.Join:
			expected++
		case trace.Leave:
			expected--
		}
	}
	c, err := New(fourChannelConfig(51, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	initial := c.ActivePeers()
	if err := c.Replay(w, horizon, nil); err != nil {
		t.Fatal(err)
	}
	if c.Stage() != horizon {
		t.Fatalf("replay ran %d stages, want %d", c.Stage(), horizon)
	}
	if got, want := c.ActivePeers(), initial+expected; got != want {
		t.Fatalf("active %d after short replay, want %d (in-horizon net joins %d)",
			got, want, expected)
	}
}

// TestReplayFlushesPartialEpoch pins the trailing-boundary contract: a
// horizon that does not divide EpochStages still flushes the remainder,
// with Stages reporting the partial epoch's true length.
func TestReplayFlushesPartialEpoch(t *testing.T) {
	w := churnWorkload(t, 50, 13)
	c, err := New(fourChannelConfig(53, nil)) // EpochStages = 20
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var metrics []EpochMetrics
	if err := c.Replay(w, 50, func(m EpochMetrics) { metrics = append(metrics, m) }); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 3 {
		t.Fatalf("observed %d epochs, want 3 (2 full + 1 partial)", len(metrics))
	}
	if metrics[0].Stages != 20 || metrics[1].Stages != 20 || metrics[2].Stages != 10 {
		t.Fatalf("epoch stage counts %d/%d/%d, want 20/20/10",
			metrics[0].Stages, metrics[1].Stages, metrics[2].Stages)
	}
}

// TestReplayBitIdenticalAcrossWorkersAndBackends is the acceptance
// criterion: replaying one workload over the full scenario dynamics
// (Markov switching, a flash crowd, re-allocation epochs) must produce
// bit-identical per-epoch metrics on the shared-memory backend inline and
// with channels forked, AND on the distsim backend at zero link loss,
// its managers inline and forked.
func TestReplayBitIdenticalAcrossWorkersAndBackends(t *testing.T) {
	const horizon = 80 // 4 epochs at EpochStages=20
	run := func(link distsim.LinkModel, procs int) []EpochMetrics {
		c, err := New(fourChannelConfig(61, link))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		forcePool(t, c, procs)
		w := churnWorkload(t, horizon, 17)
		var out []EpochMetrics
		if err := c.Replay(w, horizon, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(nil, 1)
	var joins, leaves, switches, moves int
	for _, m := range ref {
		joins += m.Joins
		leaves += m.Leaves
		switches += m.Switches
		moves += m.Moves
	}
	if joins == 0 || leaves == 0 || switches == 0 || moves == 0 {
		t.Fatalf("replay scenario inert (joins=%d leaves=%d switches=%d moves=%d); parity not exercised",
			joins, leaves, switches, moves)
	}
	pooled := run(nil, 4)
	if len(pooled) != len(ref) {
		t.Fatalf("pool epochs %d vs %d", len(pooled), len(ref))
	}
	for e := range ref {
		if pooled[e] != ref[e] {
			t.Fatalf("pool epoch %d diverges:\n pool   %+v\n inline %+v", e, pooled[e], ref[e])
		}
	}
	for _, procs := range []int{1, 4} {
		dist := run(distsim.Lossy{}, procs)
		if len(dist) != len(ref) {
			t.Fatalf("distsim epochs %d vs %d", len(dist), len(ref))
		}
		for e := range ref {
			if dist[e] != ref[e] {
				t.Fatalf("distsim (managers forked on %d lanes) epoch %d diverges:\n distsim %+v\n memory  %+v", procs, e, dist[e], ref[e])
			}
		}
	}
}

// TestChannelStageResultBackendsAgree pins the distsim backend's
// ChannelRound→core.StageResult field mapping to the shared-memory
// backend: the per-peer stage views (actions, rates, loads, capacities,
// aggregates, stage number) must be bit-identical at zero link loss, under
// churn applied between stages.
func TestChannelStageResultBackendsAgree(t *testing.T) {
	build := func(link distsim.LinkModel) *Cluster {
		c, err := New(fourChannelConfig(71, link))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mem, dist := build(nil), build(distsim.Lossy{})
	defer mem.Close()
	defer dist.Close()
	w := churnWorkload(t, 12, 23)
	perStage := w.PerStage(12)
	for s := 0; s < 12; s++ {
		for _, c := range []*Cluster{mem, dist} {
			for _, e := range perStage[s] {
				if err := c.Apply(e); err != nil {
					t.Fatalf("stage %d: %v", s, err)
				}
			}
			if _, err := c.StepStage(); err != nil {
				t.Fatal(err)
			}
		}
		for ci := 0; ci < mem.NumChannels(); ci++ {
			mr := mem.ChannelStageResult(ci).Clone()
			dr := dist.ChannelStageResult(ci).Clone()
			if !reflect.DeepEqual(mr, dr) {
				t.Fatalf("stage %d channel %d stage views diverge:\n memory  %+v\n distsim %+v",
					s, ci, mr, dr)
			}
			if len(mr.Rates) != mem.ChannelAudience(ci) {
				t.Fatalf("stage %d channel %d: %d rates for audience %d",
					s, ci, len(mr.Rates), mem.ChannelAudience(ci))
			}
		}
	}
}

// TestReplayTotalsMatchesReplayMembership pins the per-stage totals path to
// the epoch path: same seed, same workload, both paths end with identical
// membership and stage counts, and the totals series has the replay's
// horizon length (boundaries fire silently inside ReplayTotals).
func TestReplayTotalsMatchesReplayMembership(t *testing.T) {
	const horizon = 60
	w1 := churnWorkload(t, horizon, 19)
	w2 := churnWorkload(t, horizon, 19)
	a, err := New(fourChannelConfig(67, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(fourChannelConfig(67, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Replay(w1, horizon, nil); err != nil {
		t.Fatal(err)
	}
	stages := 0
	var last StageTotals
	if err := b.ReplayTotals(w2, horizon, func(tt StageTotals) { stages++; last = tt }); err != nil {
		t.Fatal(err)
	}
	if stages != horizon {
		t.Fatalf("observed %d stage totals, want %d", stages, horizon)
	}
	if a.ActivePeers() != b.ActivePeers() || last.ActivePeers != a.ActivePeers() {
		t.Fatalf("membership diverged: epoch path %d, totals path %d (last observed %d)",
			a.ActivePeers(), b.ActivePeers(), last.ActivePeers)
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("boundary count diverged: %d vs %d", a.Epoch(), b.Epoch())
	}
	if a.Stage() != b.Stage() {
		t.Fatalf("stage count diverged: %d vs %d", a.Stage(), b.Stage())
	}
}
