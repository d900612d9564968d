package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rths/internal/core"
	"rths/internal/distsim"
	"rths/internal/forkjoin"
	"rths/internal/regret"
)

func smallConfig(seed uint64) Config {
	specs, err := ZipfChannels(6, 60, 0.8, 500)
	if err != nil {
		panic(err)
	}
	return Config{
		Channels:    specs,
		Helpers:     UniformHelpers(12, core.DefaultHelperSpec()),
		EpochStages: 20,
		Seed:        seed,
		Switching:   &SwitchingConfig{SwitchProb: 0.05, ZipfS: 0.8},
		Flash:       []FlashCrowd{{Stage: 25, Channel: 5, Peers: 30}},
	}
}

func TestNewValidation(t *testing.T) {
	base := smallConfig(1)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = nil }},
		{"fewer helpers than channels", func(c *Config) { c.Helpers = c.Helpers[:3] }},
		{"negative epoch stages", func(c *Config) { c.EpochStages = -1 }},
		{"negative hysteresis", func(c *Config) { c.Hysteresis = -1 }},
		{"negative startup", func(c *Config) { c.StartupStages = -1 }},
		{"unknown allocator", func(c *Config) { c.Allocator = AllocatorKind(99) }},
		{"zero bitrate", func(c *Config) { c.Channels[0].Bitrate = 0 }},
		{"negative initial peers", func(c *Config) { c.Channels[0].InitialPeers = -1 }},
		{"helper without levels", func(c *Config) { c.Helpers[0].Levels = nil }},
		{"flash channel out of range", func(c *Config) { c.Flash = []FlashCrowd{{Stage: 0, Channel: 9}} }},
		{"flash negative stage", func(c *Config) { c.Flash = []FlashCrowd{{Stage: -1, Channel: 0}} }},
		{"series without trace", func(c *Config) { c.SeriesEvery = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Channels = append([]ChannelSpec(nil), base.Channels...)
			cfg.Helpers = append([]core.HelperSpec(nil), base.Helpers...)
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// Non-finite floats are rejected with an error naming the field. NaN
	// fails every ordered comparison, so a bare sign check lets it through.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, field string
		mutate      func(*Config)
	}{
		{"NaN bitrate", "Bitrate", func(c *Config) { c.Channels[0].Bitrate = nan }},
		{"+Inf bitrate", "Bitrate", func(c *Config) { c.Channels[1].Bitrate = inf }},
		{"NaN helper level", "level", func(c *Config) { c.Helpers[0] = core.HelperSpec{Levels: []float64{nan}} }},
		{"+Inf helper level", "level", func(c *Config) { c.Helpers[2] = core.HelperSpec{Levels: []float64{700, inf}} }},
		{"NaN hysteresis", "Hysteresis", func(c *Config) { c.Hysteresis = nan }},
		{"NaN startup", "StartupStages", func(c *Config) { c.StartupStages = nan }},
	} {
		cfg := base
		cfg.Channels = append([]ChannelSpec(nil), base.Channels...)
		cfg.Helpers = append([]core.HelperSpec(nil), base.Helpers...)
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s: New returned %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	// Switching with a single channel has nowhere to zap to.
	single := Config{
		Channels:  []ChannelSpec{{Name: "only", Bitrate: 300, InitialPeers: 2}},
		Helpers:   UniformHelpers(2, core.DefaultHelperSpec()),
		Seed:      1,
		Switching: &SwitchingConfig{SwitchProb: 0.1},
	}
	if _, err := New(single); err == nil {
		t.Fatal("switching with one channel accepted")
	}
}

func TestInitialAllocationCoversEveryChannel(t *testing.T) {
	c, err := New(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for ci := 0; ci < c.NumChannels(); ci++ {
		pool := c.ChannelPool(ci)
		if pool < 1 {
			t.Fatalf("channel %d has %d helpers", ci, pool)
		}
		total += pool
	}
	if total != c.NumHelpers() {
		t.Fatalf("assigned %d of %d helpers", total, c.NumHelpers())
	}
	// The most popular channel must not hold fewer helpers than the least
	// popular one under the greedy demand-driven initial split.
	if c.ChannelPool(0) < c.ChannelPool(c.NumChannels()-1) {
		t.Fatalf("popular channel pool %d < unpopular %d",
			c.ChannelPool(0), c.ChannelPool(c.NumChannels()-1))
	}
}

// TestProportionalPoolsFollowDemand is the §V extension end to end: the
// proportional allocator sizes each channel's pool from aggregate demand,
// then peer-level RTHS runs inside every channel. The demand-heavy channel
// must get the larger pool and every channel must reach its own optimum.
func TestProportionalPoolsFollowDemand(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "hot", Bitrate: 500, InitialPeers: 20}, // 10000 kbps aggregate
			{Name: "cold", Bitrate: 300, InitialPeers: 5}, // 1500 kbps
		},
		Helpers:   UniformHelpers(8, core.DefaultHelperSpec()),
		Allocator: AllocProportional,
		Seed:      99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.ChannelPool(0) <= c.ChannelPool(1) {
		t.Fatalf("hot channel got %d helpers vs cold %d", c.ChannelPool(0), c.ChannelPool(1))
	}
	const stages = 1500
	welfare := make([]float64, c.NumChannels())
	optimum := make([]float64, c.NumChannels())
	for s := 0; s < stages; s++ {
		if _, err := c.StepStage(); err != nil {
			t.Fatal(err)
		}
		if s < stages/2 {
			continue
		}
		for ci := range welfare {
			r := c.ChannelStageResult(ci)
			welfare[ci] += r.Welfare
			optimum[ci] += r.OptWelfare
		}
	}
	for ci := range welfare {
		if frac := welfare[ci] / optimum[ci]; frac < 0.9 {
			t.Fatalf("channel %s welfare fraction = %g", c.ChannelName(ci), frac)
		}
	}
}

// TestChannelSeedsNotAdditive pins the channel-seed derivation: under an
// additive scheme (Seed + ci*const), a cluster seeded Seed+const would
// replay on its channel 0 the stream of channel 1 of the cluster seeded
// Seed. Channels draw their seeds from a master stream instead, so the two
// must be unrelated.
func TestChannelSeedsNotAdditive(t *testing.T) {
	const additiveConst = 0x9e3779b97f4a7c15
	build := func(seed uint64) *Cluster {
		// Identical channel shapes, so any stream sharing would be visible.
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "a", Bitrate: 400, InitialPeers: 6},
				{Name: "b", Bitrate: 400, InitialPeers: 6},
			},
			Helpers: UniformHelpers(6, core.DefaultHelperSpec()),
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const base = uint64(12345)
	a, b := build(base), build(base+additiveConst)
	for s := 0; s < 50; s++ {
		for _, c := range []*Cluster{a, b} {
			if _, err := c.StepStage(); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(a.ChannelStageResult(1).Actions, b.ChannelStageResult(0).Actions) {
			return
		}
	}
	t.Fatal("cluster(seed+const) channel 0 replays cluster(seed) channel 1: channel streams are shared")
}

// twoChannelCluster is a small deployment: news (400 kbps,
// 6 viewers) and sports (600 kbps, 4 viewers) over a pool of 5 helpers.
func twoChannelCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "news", Bitrate: 400, InitialPeers: 6},
			{Name: "sports", Bitrate: 600, InitialPeers: 4},
		},
		Helpers: UniformHelpers(5, core.DefaultHelperSpec()),
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStepAggregates pins StepStage's totals to the per-channel results:
// welfare is their sum, the audience is every viewer, and a demand above
// the pool's capacity leaves a non-negative minimum deficit.
func TestStepAggregates(t *testing.T) {
	c := twoChannelCluster(t, 11)
	totals, err := c.StepStage()
	if err != nil {
		t.Fatal(err)
	}
	sum := c.ChannelStageResult(0).Welfare + c.ChannelStageResult(1).Welfare
	if totals.Welfare != sum {
		t.Fatalf("totals welfare %g vs channel sum %g", totals.Welfare, sum)
	}
	if totals.ActivePeers != 10 {
		t.Fatalf("ActivePeers = %d", totals.ActivePeers)
	}
	// Demand is the bitrate: 6*400+4*600 = 4800 kbps exceeds the pool.
	if totals.MinDeficit < 0 {
		t.Fatalf("MinDeficit = %g", totals.MinDeficit)
	}
	if ids := c.ChannelPeerIDs(0); len(ids) != 6 {
		t.Fatalf("channel 0 viewer ids: %v", ids)
	}
}

// TestStepStageZeroAllocs pins the aggregate-only observation path: once
// warm, a StepStage allocates nothing per stage.
func TestStepStageZeroAllocs(t *testing.T) {
	c := twoChannelCluster(t, 37)
	for s := 0; s < 8; s++ {
		if _, err := c.StepStage(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.StepStage(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("StepStage allocates %g objects per stage, want 0", allocs)
	}
}

func TestMembershipConservedUnderSwitching(t *testing.T) {
	c, err := New(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	before := c.ActivePeers()
	var flashJoins int
	if err := c.Run(3, func(m EpochMetrics) { flashJoins += m.Joins }); err != nil {
		t.Fatal(err)
	}
	if got, want := c.ActivePeers(), before+flashJoins; got != want {
		t.Fatalf("active peers %d, want %d (joins %d)", got, want, flashJoins)
	}
	// Audiences and the viewer index stay consistent: the audiences sum
	// to ActivePeers, and each viewer sits in the channel the index names.
	if err := viewerIndexErr(c); err != nil {
		t.Fatal(err)
	}
}

// forcePool pins how c steps its channels whatever the host and the
// stage size: procs <= 1 steps them inline, procs > 1 forks them on
// min(procs, channels) lanes from the next stage on.
func forcePool(t *testing.T, c *Cluster, procs int) {
	t.Helper()
	c.backend.(*distBackend).rt.SetPoolGate(forkjoin.Gate{Procs: procs})
}

// checkSystems steps c once, so distsim applies the ops queued since its
// last round, and checks every channel's system against the director: a
// peer per viewer, a helper per pool entry, every learner sized to the
// pool, and an arena slot per peer.
func checkSystems(t *testing.T, c *Cluster) {
	t.Helper()
	if _, err := c.StepStage(); err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < c.NumChannels(); ci++ {
		sys := channelSystem(c, ci)
		if sys.NumPeers() != c.ChannelAudience(ci) || sys.NumHelpers() != c.ChannelPool(ci) {
			t.Fatalf("channel %d system has %d peers and %d helpers, director says %d and %d",
				ci, sys.NumPeers(), sys.NumHelpers(), c.ChannelAudience(ci), c.ChannelPool(ci))
		}
		for i := 0; i < sys.NumPeers(); i++ {
			if got := sys.Selector(i).NumActions(); got != sys.NumHelpers() {
				t.Fatalf("channel %d peer %d has %d actions, pool %d", ci, i, got, sys.NumHelpers())
			}
		}
		if got, want := sys.LearnerArena().Len(), sys.NumPeers(); got != want {
			t.Fatalf("channel %d: arena holds %d slots for %d peers", ci, got, want)
		}
	}
}

// TestDeterministicAcrossWorkers pins the cluster's determinism contract:
// forking channels on the executor affects wall-clock only. The fork's
// width is derived from the host (min(GOMAXPROCS, channels)), so every
// per-epoch metric must be bit-identical inline and on 2 and 4 lanes,
// with no link and behind a perfect one, across epochs with viewer
// switching, a flash crowd, replayed churn, partial views and helper
// re-allocation.
func TestDeterministicAcrossWorkers(t *testing.T) {
	const horizon = 100 // 5 epochs at EpochStages=20
	wl := churnWorkload(t, horizon, 29)
	run := func(link distsim.LinkModel, procs int) []EpochMetrics {
		cfg := smallConfig(17)
		cfg.ViewSize = 2
		cfg.ViewRefresh = 10
		cfg.Link = link
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		forcePool(t, c, procs)
		var out []EpochMetrics
		if err := c.Replay(wl, horizon, func(m EpochMetrics) { out = append(out, m) }); err != nil {
			t.Fatal(err)
		}
		viewed := 0
		for ci := 0; ci < c.NumChannels(); ci++ {
			if sys := channelSystem(c, ci); sys.NumPeers() > 0 && sys.PeerView(0) != nil {
				viewed++
			}
		}
		if viewed == 0 {
			t.Fatal("no channel engaged partial views; determinism test does not cover views")
		}
		return out
	}
	ref := run(nil, 1)
	var moved, joins, leaves int
	for _, m := range ref {
		moved += m.Moves
		joins += m.Joins
		leaves += m.Leaves
	}
	if moved == 0 || joins == 0 || leaves == 0 {
		t.Fatalf("scenario inert (moves=%d joins=%d leaves=%d); determinism test does not cover migration and churn",
			moved, joins, leaves)
	}
	for _, procs := range []int{1, 2, 4} {
		got := run(distsim.Lossy{}, procs)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d epochs %d vs %d", procs, len(got), len(ref))
		}
		for e := range ref {
			if got[e] != ref[e] {
				t.Fatalf("workers=%d epoch %d diverges:\n got %+v\nwant %+v", procs, e, got[e], ref[e])
			}
		}
	}
}

// TestScaleDeterminism is the acceptance-scale run: 100 channels × 10k
// total viewers with channels forked on the executor must reproduce the
// inline metrics bit-for-bit, including across a re-allocation epoch.
func TestScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale run")
	}
	build := func(procs int) *Cluster {
		specs, err := ZipfChannels(100, 10000, 0.8, 300)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Channels:    specs,
			Helpers:     UniformHelpers(150, core.DefaultHelperSpec()),
			EpochStages: 10,
			Seed:        7,
			Switching:   &SwitchingConfig{SwitchProb: 0.02, ZipfS: 0.8},
			Flash:       []FlashCrowd{{Stage: 5, Channel: 90, Peers: 500}},
		})
		if err != nil {
			t.Fatal(err)
		}
		forcePool(t, c, procs)
		return c
	}
	seq := build(1)
	par := build(4)
	if seq.ActivePeers() != 10000 {
		t.Fatalf("initial audience %d", seq.ActivePeers())
	}
	for e := 0; e < 2; e++ {
		ms, err := seq.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := par.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if ms != mp {
			t.Fatalf("epoch %d diverges:\n seq %+v\n par %+v", e, ms, mp)
		}
	}
	if seq.ActivePeers() != 10500 {
		t.Fatalf("post-flash audience %d", seq.ActivePeers())
	}
}

// TestReallocationBeatsStatic is the tentpole's integration criterion: after
// a flash crowd shifts demand, the adaptive allocator's max cross-channel
// deficit must be strictly lower than the frozen initial assignment's. Both
// runs share a seed and an exogenous audience trajectory, so the comparison
// isolates the allocator.
func TestReallocationBeatsStatic(t *testing.T) {
	run := func(kind AllocatorKind) (last EpochMetrics, moved int) {
		c, err := New(Config{
			Channels: []ChannelSpec{
				{Name: "hot", Bitrate: 600, InitialPeers: 30},
				{Name: "warm", Bitrate: 600, InitialPeers: 10},
				{Name: "cold-a", Bitrate: 600, InitialPeers: 5},
				{Name: "cold-b", Bitrate: 600, InitialPeers: 5},
			},
			Helpers:     UniformHelpers(40, core.DefaultHelperSpec()),
			Allocator:   kind,
			EpochStages: 20,
			Seed:        11,
			Flash:       []FlashCrowd{{Stage: 30, Channel: 3, Peers: 60}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(3, func(m EpochMetrics) {
			last = m
			moved += m.Moves
		}); err != nil {
			t.Fatal(err)
		}
		return last, moved
	}
	static, staticMoves := run(AllocStatic)
	if staticMoves != 0 {
		t.Fatalf("static allocator moved %d helpers", staticMoves)
	}
	adaptive, adaptiveMoves := run(AllocGreedy)
	if adaptiveMoves == 0 {
		t.Fatal("adaptive allocator never migrated helpers")
	}
	// Identical exogenous audiences: the demand side matches exactly.
	if static.ActivePeers != adaptive.ActivePeers {
		t.Fatalf("audiences diverged: %d vs %d", static.ActivePeers, adaptive.ActivePeers)
	}
	if adaptive.MaxDeficit >= static.MaxDeficit {
		t.Fatalf("adaptive max deficit %g not strictly below static %g",
			adaptive.MaxDeficit, static.MaxDeficit)
	}
}

// TestMigrationChurnsLearnerActionSets verifies the wiring the tentpole
// names: helper migration must resize the learners of both channels
// through AddAction/RemoveAction so every peer's action set tracks its
// channel's live pool.
func TestMigrationChurnsLearnerActionSets(t *testing.T) {
	c, err := New(Config{
		Channels: []ChannelSpec{
			{Name: "a", Bitrate: 500, InitialPeers: 10},
			{Name: "b", Bitrate: 500, InitialPeers: 10},
		},
		Helpers:     UniformHelpers(8, core.DefaultHelperSpec()),
		EpochStages: 10,
		Seed:        23,
		Flash:       []FlashCrowd{{Stage: 5, Channel: 1, Peers: 40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	if err := c.Run(2, func(m EpochMetrics) { moved += m.Moves }); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("flash crowd did not trigger migration")
	}
	checkSystems(t, c)
	// The assignment map and per-channel helper id lists stay one-to-one.
	seen := make(map[int]bool)
	for ci := 0; ci < c.NumChannels(); ci++ {
		for _, h := range c.channels[ci].helperIDs {
			if seen[h] {
				t.Fatalf("helper %d assigned twice", h)
			}
			seen[h] = true
			if c.assign[h] != ci {
				t.Fatalf("helper %d in channel %d but assign says %d", h, ci, c.assign[h])
			}
		}
	}
	if len(seen) != c.NumHelpers() {
		t.Fatalf("%d of %d helpers assigned", len(seen), c.NumHelpers())
	}
}

// TestFactoryCoversMidRunViewers pins the fix for the factory bypass:
// flash-crowd joiners and channel switchers must get factory-built
// policies, not silently fall back to the default learner.
func TestFactoryCoversMidRunViewers(t *testing.T) {
	cfg := smallConfig(43)
	built := 0
	cfg.Factory = func(_, numHelpers int, _ float64) (core.Selector, error) {
		built++
		return regret.New(regret.Defaults(numHelpers, 1))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := built
	if initial != c.ActivePeers() {
		t.Fatalf("factory built %d policies for %d initial viewers", initial, c.ActivePeers())
	}
	var switches, joins int
	if err := c.Run(3, func(m EpochMetrics) {
		switches += m.Switches
		joins += m.Joins
	}); err != nil {
		t.Fatal(err)
	}
	if switches == 0 || joins == 0 {
		t.Fatalf("scenario inert: %d switches, %d joins", switches, joins)
	}
	if got, want := built-initial, switches+joins; got != want {
		t.Fatalf("factory built %d mid-run policies, want %d (switches %d + joins %d)",
			got, want, switches, joins)
	}
}

func TestEpochMetricsRanges(t *testing.T) {
	c, err := New(smallConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(3, func(m EpochMetrics) {
		if m.WelfareRatio < 0 || m.WelfareRatio > 1+1e-9 {
			t.Fatalf("welfare ratio %g", m.WelfareRatio)
		}
		if m.Continuity < 0 || m.Continuity > 1 {
			t.Fatalf("continuity %g", m.Continuity)
		}
		if m.MeanServerLoad < 0 || m.MeanMinDeficit < 0 || m.MaxDeficit < 0 {
			t.Fatalf("negative load metric: %+v", m)
		}
		// Real server load dominates the analytic minimum deficit.
		if m.MeanServerLoad < m.MeanMinDeficit-1e-9 {
			t.Fatalf("server load %g below minimum deficit %g", m.MeanServerLoad, m.MeanMinDeficit)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 3 || c.Stage() != 60 {
		t.Fatalf("epoch %d stage %d", c.Epoch(), c.Stage())
	}
}

func TestZipfChannels(t *testing.T) {
	specs, err := ZipfChannels(5, 103, 1.0, 400)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for ci, s := range specs {
		if s.Bitrate != 400 {
			t.Fatalf("bitrate %g", s.Bitrate)
		}
		if ci > 0 && s.InitialPeers > specs[ci-1].InitialPeers {
			t.Fatalf("audiences not popularity-ordered: %+v", specs)
		}
		sum += s.InitialPeers
	}
	if sum != 103 {
		t.Fatalf("audiences sum to %d, want 103", sum)
	}
	if _, err := ZipfChannels(0, 10, 1, 400); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := ZipfChannels(3, -1, 1, 400); err == nil {
		t.Fatal("negative peers accepted")
	}
	if _, err := ZipfChannels(3, 10, 1, 0); err == nil {
		t.Fatal("zero bitrate accepted")
	}
	// NaN fails every comparison, so it must not slip past a <= 0 check.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := ZipfChannels(3, 10, 1, bad); err == nil {
			t.Fatalf("bitrate %g accepted", bad)
		}
		if _, err := ZipfChannels(3, 10, bad, 400); err == nil {
			t.Fatalf("zipf exponent %g accepted", bad)
		}
	}
}
