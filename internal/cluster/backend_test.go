package cluster

import (
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
)

// links are the two legs of every backend-parity test. No link builds the
// memory backend. A perfect link builds the distsim backend, and since it
// drops, delays and draws nothing, the two legs must agree bit for bit.
var links = []distsim.LinkModel{nil, distsim.Lossy{}}

// backendName labels a leg of links in failure messages.
func backendName(link distsim.LinkModel) string {
	if link == nil {
		return "memory"
	}
	return "distsim"
}

// fourChannelConfig is the acceptance shape: 4 channels with skewed
// audiences, Markov switching, a flash crowd on the coldest channel, and
// re-allocation epochs — every dynamic the runtime has, in one scenario.
// A nil link runs it on the memory backend, any other on distsim.
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

// TestDistsimBackendBitIdentical is the tentpole's acceptance criterion:
// the batched message-passing runtime must reproduce the shared-memory
// cluster's per-epoch metrics bit-identically at zero link latency/drop —
// welfare ratio, deficits, continuity, helper moves, the lot — across a
// 4-channel scenario with switching, a flash crowd, and re-allocation
// epochs.
func TestDistsimBackendBitIdentical(t *testing.T) {
	run := func(link distsim.LinkModel) []EpochMetrics {
		c, err := New(fourChannelConfig(101, link))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []EpochMetrics
		if err := c.Run(4, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	mem := run(nil)
	moved, switched := 0, 0
	for _, m := range mem {
		moved += m.Moves
		switched += m.Switches
	}
	if moved == 0 || switched == 0 {
		t.Fatalf("scenario inert (moves=%d switches=%d); parity test does not cover migration", moved, switched)
	}
	dist := run(distsim.Lossy{})
	if len(dist) != len(mem) {
		t.Fatalf("epoch counts differ: %d vs %d", len(dist), len(mem))
	}
	for e := range mem {
		if dist[e] != mem[e] {
			t.Fatalf("epoch %d diverges:\n distsim %+v\n memory  %+v", e, dist[e], mem[e])
		}
	}
}

// TestBackendsAgreeAcrossAllocators extends the parity check to every
// allocator kind — the proportional path exercises repairMinOne and the
// static path the no-migration boundary.
func TestBackendsAgreeAcrossAllocators(t *testing.T) {
	for _, kind := range []AllocatorKind{AllocGreedy, AllocProportional, AllocStatic} {
		run := func(link distsim.LinkModel) []EpochMetrics {
			cfg := fourChannelConfig(7, link)
			cfg.Allocator = kind
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var out []EpochMetrics
			if err := c.Run(3, func(m EpochMetrics) { out = append(out, m) }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		mem, dist := run(nil), run(distsim.Lossy{})
		for e := range mem {
			if dist[e] != mem[e] {
				t.Fatalf("allocator %v epoch %d diverges:\n distsim %+v\n memory  %+v", kind, e, dist[e], mem[e])
			}
		}
	}
}

// TestNewDerivesBackend pins how New picks the backend: a config with
// none of Link, Faults or Detector steps on shared memory, and each one
// alone, even at its zero value, needs message passing and builds distsim.
func TestNewDerivesBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		dist bool
	}{
		{"none", func(*Config) {}, false},
		{"perfect link", func(cfg *Config) { cfg.Link = distsim.Lossy{} }, true},
		{"empty fault plan", func(cfg *Config) { cfg.Faults = &distsim.FaultPlan{} }, true},
		{"default detector", func(cfg *Config) { cfg.Detector = &DetectorConfig{} }, true},
	} {
		cfg := fourChannelConfig(1, nil)
		tc.set(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, dist := c.backend.(*distBackend)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if dist != tc.dist {
			t.Fatalf("%s: built %T, want distsim=%v", tc.name, c.backend, tc.dist)
		}
	}
}

// TestMigrateSwapLastHelpers pins the remove-a-channel's-last-helper edge:
// a migration that swaps two single-helper channels' entire pools must
// succeed because additions precede removals — at no point is a channel
// empty, even though both channels lose their only helper.
func TestMigrateSwapLastHelpers(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 500, InitialPeers: 4},
				{Name: "b", Bitrate: 500, InitialPeers: 4},
			},
			Helpers:     UniformHelpers(2, core.DefaultHelperSpec()),
			Link:        link,
			EpochStages: 5,
			Seed:        3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.ChannelPool(0) != 1 || c.ChannelPool(1) != 1 {
			t.Fatalf("backend %v: initial pools %d/%d, want 1/1", backend, c.ChannelPool(0), c.ChannelPool(1))
		}
		// Swap the two channels' only helpers.
		next := append([]int(nil), c.assign...)
		next[0], next[1] = next[1], next[0]
		moves, err := c.migrate(next)
		if err != nil {
			t.Fatalf("backend %v: swap migration: %v", backend, err)
		}
		if moves != 2 {
			t.Fatalf("backend %v: %d moves, want 2", backend, moves)
		}
		if c.ChannelPool(0) != 1 || c.ChannelPool(1) != 1 {
			t.Fatalf("backend %v: post-swap pools %d/%d", backend, c.ChannelPool(0), c.ChannelPool(1))
		}
		// The cluster must keep stepping cleanly on the swapped pools (the
		// distsim backend applies the queued ops here).
		if _, err := c.RunEpoch(); err != nil {
			t.Fatalf("backend %v: epoch after swap: %v", backend, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
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
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "hot", Bitrate: 500, InitialPeers: 20},
				{Name: "cold", Bitrate: 500, InitialPeers: 2},
			},
			Helpers:     UniformHelpers(10, core.DefaultHelperSpec()),
			Link:        link,
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
			t.Fatalf("backend %v: %v", backend, err)
		}
		if moved == 0 {
			t.Fatalf("backend %v: flash crowd never triggered migration", backend)
		}
		if c.ChannelPool(1) <= before {
			t.Fatalf("backend %v: flash channel pool %d -> %d, want growth",
				backend, before, c.ChannelPool(1))
		}
		if link == nil {
			for ci := 0; ci < c.NumChannels(); ci++ {
				sys := c.backend.(*memBackend).channels[ci].sys
				if sys.NumHelpers() != c.ChannelPool(ci) {
					t.Fatalf("channel %d system has %d helpers, pool says %d",
						ci, sys.NumHelpers(), c.ChannelPool(ci))
				}
				for i := 0; i < sys.NumPeers(); i++ {
					if got := sys.Selector(i).NumActions(); got != sys.NumHelpers() {
						t.Fatalf("channel %d peer %d has %d actions, want %d",
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

// TestReAddPreviouslyRemovedHelper pins round-trip migration: a helper id
// that leaves a channel and later returns must be re-integrated cleanly —
// fresh bandwidth chain, consistent pool bookkeeping, learners resized on
// both hops.
func TestReAddPreviouslyRemovedHelper(t *testing.T) {
	for _, link := range links {
		backend := backendName(link)
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 500, InitialPeers: 6},
				{Name: "b", Bitrate: 500, InitialPeers: 6},
			},
			Helpers:     UniformHelpers(4, core.DefaultHelperSpec()),
			Link:        link,
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
				t.Fatalf("backend %v hop %d: %v", backend, hop, err)
			}
			if c.assign[h] != target {
				t.Fatalf("backend %v hop %d: assign[%d]=%d, want %d", backend, hop, h, c.assign[h], target)
			}
			if _, err := c.RunEpoch(); err != nil {
				t.Fatalf("backend %v hop %d epoch: %v", backend, hop, err)
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
				t.Fatalf("backend %v: helper %d still listed in channel 1", backend, h)
			}
		}
		if count != 1 {
			t.Fatalf("backend %v: helper %d appears %d times in channel 0", backend, h, count)
		}
		if got := c.ChannelPool(0) + c.ChannelPool(1); got != c.NumHelpers() {
			t.Fatalf("backend %v: pools sum to %d of %d", backend, got, c.NumHelpers())
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
