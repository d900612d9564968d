package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
)

// viewsConfig is the fourChannelConfig shape with enough helpers that
// every channel's pool exceeds the view bound, so partial views engage in
// every channel.
func viewsConfig(seed uint64, link distsim.LinkModel, viewSize int) Config {
	cfg := fourChannelConfig(seed, link)
	cfg.Helpers = UniformHelpers(48, core.DefaultHelperSpec())
	cfg.ViewSize = viewSize
	cfg.ViewRefresh = 10
	return cfg
}

// The satellite equivalence pin at the cluster level: ViewSize=0 and any
// ViewSize at or above every channel's pool are the same engine,
// bit-for-bit, and the full-view engine matches the reference executor.
func TestClusterViewEquivalenceFullView(t *testing.T) {
	base := crossCheck(t, viewsConfig(33, nil, 0), runFor(3))
	// 48 is the whole pool, so no channel's pool can exceed it.
	got := runEpochs(t, viewsConfig(33, nil, 48), 3)
	for e := range base {
		if got[e] != base[e] {
			t.Fatalf("epoch %d diverges:\n got  %+v\n want %+v", e, got[e], base[e])
		}
	}
}

// With partial views engaged (ViewSize below the pool sizes), runs with
// no link and behind a perfect link, with the managers inline and forked,
// must agree bit-for-bit: view sampling and refresh run on per-peer
// streams inside each channel's system, so neither the manager fork nor
// the link path can perturb them. (The reference executor has no views.)
// The scenario keeps switching, a flash crowd and re-allocation epochs
// on, so views compose with every churn source.
func TestClusterPartialViewsBitIdenticalAcrossWorkersAndBackends(t *testing.T) {
	run := func(link distsim.LinkModel, procs int) []EpochMetrics {
		c, err := New(viewsConfig(101, link, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		forcePool(t, c, procs)
		var out []EpochMetrics
		if err := c.Run(4, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(nil, 1)
	moves, switches := 0, 0
	for _, m := range base {
		moves += m.Moves
		switches += m.Switches
	}
	if moves == 0 || switches == 0 {
		t.Fatalf("scenario inert (moves=%d switches=%d); parity test does not cover view-aware migration", moves, switches)
	}
	for _, procs := range []int{1, 4} {
		got := run(distsim.Lossy{}, procs)
		for e := range base {
			if got[e] != base[e] {
				t.Fatalf("managers forked on %d lanes: epoch %d diverges:\n got  %+v\n want %+v", procs, e, got[e], base[e])
			}
		}
	}
}

// Partial views must also hold through trace replay (joins, leaves, zaps),
// with no link and behind a perfect link.
func TestClusterPartialViewsReplayBitIdentical(t *testing.T) {
	w := churnWorkload(t, 80, 12)
	run := func(link distsim.LinkModel) []EpochMetrics {
		c, err := New(viewsConfig(55, link, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []EpochMetrics
		if err := c.Replay(w, 80, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base, perfect := run(nil), run(distsim.Lossy{})
	if len(base) == 0 || len(base) != len(perfect) {
		t.Fatalf("epoch counts: %d vs %d", len(base), len(perfect))
	}
	for e := range base {
		if base[e] != perfect[e] {
			t.Fatalf("epoch %d diverges:\n perfect link %+v\n no link      %+v", e, perfect[e], base[e])
		}
	}
	joined := 0
	for _, m := range base {
		joined += m.Joins
	}
	if joined == 0 {
		t.Fatal("workload applied no joins; replay parity test is inert")
	}
}

// The welfare-ratio regression pin (satellite): an epoch whose optimal
// welfare is zero must report the defined 0/0 ratio of 1 — never NaN,
// which encoding/json refuses to marshal, crashing rths-cluster's
// JSON-lines output. Two ways to produce such an epoch: channels with no
// viewers at all, and — the "every helper at a zero-capacity level" case —
// a fully partitioned distsim link under which every helper's observed
// capacity is zero while viewers are present.
func TestWelfareRatioZeroOptimumDefined(t *testing.T) {
	check := func(name string, m EpochMetrics) {
		t.Helper()
		if m.WelfareRatio != 1 {
			t.Fatalf("%s: WelfareRatio = %v, want the defined 0/0 = 1", name, m.WelfareRatio)
		}
		if math.IsNaN(m.MeanServerLoad) || math.IsNaN(m.Continuity) || math.IsNaN(m.MaxDeficit) {
			t.Fatalf("%s: NaN leaked into %+v", name, m)
		}
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("%s: epoch record does not marshal: %v", name, err)
		}
	}

	// Empty audiences: every channel's stage optimum is min(N,H)=0 largest
	// capacities, so the epoch accumulates opt = 0.
	empty, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 300, InitialPeers: 0},
			{Name: "b", Bitrate: 300, InitialPeers: 0},
		},
		Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	m, err := empty.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	check("empty audience", m)

	// Total link loss on the distsim backend: viewers play, but every
	// helper's capacity is observed as zero every stage — welfare 0 over
	// optimum 0 for the whole epoch.
	link, err := distsim.NewLossy(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 300, InitialPeers: 8},
			{Name: "b", Bitrate: 300, InitialPeers: 8},
		},
		Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        1,
		Link:        link,
		LinkSeed:    9,
	}
	dead, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	m, err = dead.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if m.Continuity != 0 {
		t.Fatalf("fully partitioned links should stall every buffer tick, got continuity %v", m.Continuity)
	}
	check("total link loss", m)

	// The per-stage surface agrees: StageTotals defines 0/0 the same way.
	tot, err := dead.StepStage()
	if err != nil {
		t.Fatal(err)
	}
	if tot.OptWelfare != 0 || tot.WelfareRatio() != 1 {
		t.Fatalf("StageTotals 0/0: opt=%v ratio=%v, want 0 and 1", tot.OptWelfare, tot.WelfareRatio())
	}

}

// The free-id satellite: under sustained leave/re-join churn, scenario
// joins recycle freed ids from a min-heap, so the id space stays dense —
// ids never exceed the high-water audience — instead of growing by one
// per churn pair forever (and each join stays O(log n), not an O(N) scan).
func TestJoinReusesFreedIDsDense(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{{Name: "a", Bitrate: 300, InitialPeers: 10}},
		Helpers:  UniformHelpers(2, core.DefaultHelperSpec()),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	maxID := func() int {
		worst := -1
		for _, id := range c.ChannelPeerIDs(0) {
			if id > worst {
				worst = id
			}
		}
		return worst
	}
	for pair := 0; pair < 10000; pair++ {
		// Leave a rotating resident, then scenario-join a replacement: the
		// join must take over the freed id (the lowest free one).
		victim := c.ChannelPeerIDs(0)[pair%10]
		if err := c.Leave(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.join(0); err != nil {
			t.Fatal(err)
		}
		if got := maxID(); got > 10 {
			t.Fatalf("pair %d: max id %d — id space not dense (10 viewers)", pair, got)
		}
		if c.ActivePeers() != 10 {
			t.Fatalf("pair %d: %d active viewers", pair, c.ActivePeers())
		}
	}
	// A couple of steps to confirm the churned system still runs.
	if _, err := c.StepStage(); err != nil {
		t.Fatal(err)
	}
}

// Freed ids from an external (offset) id space are never recycled by
// scenario joins: a replayed workload's ids stay its own.
func TestJoinDoesNotRecycleReplayIDs(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{{Name: "a", Bitrate: 300, InitialPeers: 4}},
		Helpers:  UniformHelpers(2, core.DefaultHelperSpec()),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const replayID = 1 << 20
	if err := c.Join(replayID, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(replayID); err != nil {
		t.Fatal(err)
	}
	if err := c.join(0); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.ChannelPeerIDs(0) {
		if id == replayID {
			t.Fatalf("scenario join recycled the replay id %d", replayID)
		}
	}
	// The same trace viewer id can now re-join without colliding.
	if err := c.Join(replayID, 0); err != nil {
		t.Fatalf("replay id no longer joinable: %v", err)
	}
}
