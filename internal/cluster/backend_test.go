package cluster

import (
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
)

// fourChannelConfig is the acceptance shape: 4 channels with skewed
// audiences, Markov switching, a flash crowd on the coldest channel, and
// re-allocation epochs — every dynamic the runtime has, in one scenario.
func fourChannelConfig(seed uint64, link distsim.LinkModel) Config {
	return Config{
		Channels: []ChannelSpec{
			{Name: "hot", Bitrate: 600, InitialPeers: 30},
			{Name: "warm", Bitrate: 600, InitialPeers: 10},
			{Name: "cold-a", Bitrate: 600, InitialPeers: 5},
			{Name: "cold-b", Bitrate: 600, InitialPeers: 5},
		},
		Helpers:     UniformHelpers(40, core.DefaultHelperSpec()),
		Link:        link,
		EpochStages: 20,
		Seed:        seed,
		Switching:   &SwitchingConfig{SwitchProb: 0.05, ZipfS: 0.8},
		Flash:       []FlashCrowd{{Stage: 30, Channel: 3, Peers: 60}},
	}
}

// TestDistsimBackendBitIdentical is the runtime's acceptance criterion
// against the naive reference executor: at zero link latency and drop,
// distsim must reproduce the reference's every stage, epoch record and
// learner strategy — welfare ratio, deficits, continuity, helper moves,
// the lot — across a 4-channel scenario with switching, a flash crowd,
// and re-allocation epochs.
func TestDistsimBackendBitIdentical(t *testing.T) {
	dist := crossCheck(t, fourChannelConfig(101, nil), runFor(4))
	moved, switched := 0, 0
	for _, m := range dist {
		moved += m.Moves
		switched += m.Switches
	}
	if moved == 0 || switched == 0 {
		t.Fatalf("scenario inert (moves=%d switches=%d); parity test does not cover migration", moved, switched)
	}
}

// TestBackendsAgreeAcrossAllocators extends the cross-check to every
// allocator kind — the proportional path exercises repairMinOne and the
// static path the no-migration boundary.
func TestBackendsAgreeAcrossAllocators(t *testing.T) {
	for _, kind := range []AllocatorKind{AllocGreedy, AllocProportional, AllocStatic} {
		cfg := fourChannelConfig(7, nil)
		cfg.Allocator = kind
		crossCheck(t, cfg, runFor(3))
	}
}

// TestMigrateSwapLastHelpers pins the remove-a-channel's-last-helper edge:
// a migration that swaps two single-helper channels' entire pools must
// succeed because additions precede removals — at no point is a channel
// empty, even though both channels lose their only helper.
func TestMigrateSwapLastHelpers(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 500, InitialPeers: 4},
			{Name: "b", Bitrate: 500, InitialPeers: 4},
		},
		Helpers:     UniformHelpers(2, core.DefaultHelperSpec()),
		Link:        distsim.Lossy{},
		EpochStages: 5,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ChannelPool(0) != 1 || c.ChannelPool(1) != 1 {
		t.Fatalf("initial pools %d/%d, want 1/1", c.ChannelPool(0), c.ChannelPool(1))
	}
	// Swap the two channels' only helpers.
	next := append([]int(nil), c.assign...)
	next[0], next[1] = next[1], next[0]
	moves, err := c.migrate(next)
	if err != nil {
		t.Fatalf("swap migration: %v", err)
	}
	if moves != 2 {
		t.Fatalf("%d moves, want 2", moves)
	}
	if c.ChannelPool(0) != 1 || c.ChannelPool(1) != 1 {
		t.Fatalf("post-swap pools %d/%d", c.ChannelPool(0), c.ChannelPool(1))
	}
	// The cluster must keep stepping cleanly on the swapped pools (the
	// runtime applies the queued ops here).
	if _, err := c.RunEpoch(); err != nil {
		t.Fatalf("epoch after swap: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryChannelKeepsAHelperUnderPressure drives an allocator-facing
// variant of the last-helper edge: demand collapses onto one channel (a
// flash crowd 20x the rest of the audience), and the greedy allocator must
// still never strip any channel below one helper.
func TestEveryChannelKeepsAHelperUnderPressure(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 500, InitialPeers: 3},
			{Name: "b", Bitrate: 500, InitialPeers: 3},
			{Name: "c", Bitrate: 500, InitialPeers: 3},
		},
		Helpers:     UniformHelpers(6, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        5,
		Flash:       []FlashCrowd{{Stage: 12, Channel: 2, Peers: 180}},
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	if err := c.Run(4, func(m EpochMetrics) {
		moved += m.Moves
		for ci := 0; ci < c.NumChannels(); ci++ {
			if c.ChannelPool(ci) < 1 {
				t.Fatalf("epoch %d: channel %d stripped to %d helpers", m.Epoch, ci, c.ChannelPool(ci))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("20x demand shift never migrated a helper")
	}
}

// TestMigrationIntoFlashCrowdChannel pins the mid-flash-crowd migration
// edge: helpers must flow into the channel whose audience just exploded,
// while every affected learner's action set tracks its channel's live
// pool (joiners sized to the post-migration pool included).
func TestMigrationIntoFlashCrowdChannel(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "hot", Bitrate: 500, InitialPeers: 20},
			{Name: "cold", Bitrate: 500, InitialPeers: 2},
		},
		Helpers:     UniformHelpers(10, core.DefaultHelperSpec()),
		Link:        distsim.Lossy{},
		EpochStages: 10,
		Seed:        13,
		// The crowd lands mid-epoch, between two boundaries.
		Flash: []FlashCrowd{{Stage: 15, Channel: 1, Peers: 80}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := c.ChannelPool(1)
	moved := 0
	if err := c.Run(3, func(m EpochMetrics) { moved += m.Moves }); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("flash crowd never triggered migration")
	}
	if c.ChannelPool(1) <= before {
		t.Fatalf("flash channel pool %d -> %d, want growth",
			before, c.ChannelPool(1))
	}
	checkSystems(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReAddPreviouslyRemovedHelper pins round-trip migration: a helper id
// that leaves a channel and later returns must be re-integrated cleanly —
// fresh bandwidth chain, consistent pool bookkeeping, learners resized on
// both hops.
func TestReAddPreviouslyRemovedHelper(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 500, InitialPeers: 6},
			{Name: "b", Bitrate: 500, InitialPeers: 6},
		},
		Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
		Link:        distsim.Lossy{},
		EpochStages: 5,
		Seed:        29,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a helper currently on channel 0 and bounce it 0 -> 1 -> 0,
	// stepping an epoch after each hop so the distsim ops apply and the
	// learners play on the churned action sets.
	h := c.channels[0].helperIDs[0]
	for hop, target := range []int{1, 0} {
		next := append([]int(nil), c.assign...)
		next[h] = target
		if _, err := c.migrate(next); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if c.assign[h] != target {
			t.Fatalf("hop %d: assign[%d]=%d, want %d", hop, h, c.assign[h], target)
		}
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("hop %d epoch: %v", hop, err)
		}
	}
	// The round-tripped helper is exactly once in its home channel's
	// pool and absent from the other.
	count := 0
	for _, id := range c.channels[0].helperIDs {
		if id == h {
			count++
		}
	}
	for _, id := range c.channels[1].helperIDs {
		if id == h {
			t.Fatalf("helper %d still listed in channel 1", h)
		}
	}
	if count != 1 {
		t.Fatalf("helper %d appears %d times in channel 0", h, count)
	}
	if got := c.ChannelPool(0) + c.ChannelPool(1); got != c.NumHelpers() {
		t.Fatalf("pools sum to %d of %d", got, c.NumHelpers())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
