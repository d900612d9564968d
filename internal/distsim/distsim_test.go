package distsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"rths/internal/core"
	"rths/internal/xrand"
)

func uniformHelpers(n int) []core.HelperSpec {
	out := make([]core.HelperSpec, n)
	for j := range out {
		out[j] = core.DefaultHelperSpec()
	}
	return out
}

// fourChannelConfig builds a 4-channel deployment with skewed audiences
// and a round-robin initial assignment.
func fourChannelConfig(seed uint64) Config {
	helpers := uniformHelpers(8)
	assign := make([]int, len(helpers))
	for h := range assign {
		assign[h] = h % 4
	}
	cfg := Config{
		Helpers: helpers,
		Assign:  assign,
	}
	for ci, peers := range []int{20, 10, 5, 5} {
		cfg.Channels = append(cfg.Channels, ChannelConfig{
			Name:          string(rune('a' + ci)),
			Seed:          seed + uint64(ci),
			InitialPeers:  peers,
			DemandPerPeer: 500,
			StartupStages: 2,
		})
	}
	return cfg
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = nil }},
		{"no helpers", func(c *Config) { c.Helpers = nil; c.Assign = nil }},
		{"assign length mismatch", func(c *Config) { c.Assign = c.Assign[:3] }},
		{"assign out of range", func(c *Config) { c.Assign[0] = 9 }},
		{"channel without helpers", func(c *Config) {
			for h := range c.Assign {
				c.Assign[h] = 0
			}
		}},
		{"negative startup", func(c *Config) { c.Channels[0].StartupStages = -1 }},
		{"bad helper level", func(c *Config) { c.Helpers[0].Levels = []float64{-5} }},
		{"negative peers", func(c *Config) { c.Channels[0].InitialPeers = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fourChannelConfig(1)
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// oneChannelConfig is a single-channel deployment: one manager hosts every
// peer and owns every helper.
func oneChannelConfig(peers, helpers int, seed uint64) Config {
	return Config{
		Channels: []ChannelConfig{{Name: "solo", Seed: seed, InitialPeers: peers}},
		Helpers:  uniformHelpers(helpers),
		Assign:   make([]int, helpers),
	}
}

// TestRoundInvariants drives the protocol and checks the per-round channel
// views of every channel: loads conserve peers, rates equal C_j/load_j,
// and welfare equals the occupied capacity — on the four-channel
// deployment, on one channel of 12 peers and 3 helper nodes, and on one
// channel of 100 peers and 10 helper nodes, the population at which
// deadlocks and buffer miscounts would show.
func TestRoundInvariants(t *testing.T) {
	oneChannel := func(peers, helpers int, seed uint64) Config {
		cfg := oneChannelConfig(peers, helpers, seed)
		cfg.Channels[0].DemandPerPeer = 500
		cfg.Channels[0].StartupStages = 2
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		peers  []int
		rounds int
	}{
		{"four channels", fourChannelConfig(42), []int{20, 10, 5, 5}, 100},
		{"one channel", oneChannel(12, 3, 42), []int{12}, 200},
		{"hundred peers", oneChannel(100, 10, 1234), []int{100}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRoundInvariants(t, tc.cfg, tc.peers, tc.rounds) })
	}
}

func checkRoundInvariants(t *testing.T, cfg Config, peers []int, rounds int) {
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for round := 0; round < rounds; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Round != round {
			t.Fatalf("round %d reported as %d", round, stats.Round)
		}
		for ci, ch := range stats.Channels {
			loadSum := 0
			for _, l := range ch.Loads {
				loadSum += l
			}
			if loadSum != peers[ci] {
				t.Fatalf("round %d channel %d: loads sum %d, want %d", round, ci, loadSum, peers[ci])
			}
			welfare := 0.0
			for j, l := range ch.Loads {
				if l > 0 {
					welfare += ch.Capacities[j]
				}
			}
			if math.Abs(welfare-ch.Welfare) > 1e-6 {
				t.Fatalf("round %d channel %d: welfare %g vs occupied capacity %g",
					round, ci, ch.Welfare, welfare)
			}
			for i, a := range ch.Actions {
				want := ch.Capacities[a] / float64(ch.Loads[a])
				if math.Abs(ch.Rates[i]-want) > 1e-9 {
					t.Fatalf("round %d channel %d peer %d: rate %g want %g",
						round, ci, i, ch.Rates[i], want)
				}
			}
			if ch.Played+ch.Stalled != peers[ci] {
				t.Fatalf("round %d channel %d: %d buffer ticks for %d peers",
					round, ci, ch.Played+ch.Stalled, peers[ci])
			}
			if ch.Unserved != 0 || ch.LostMsgs != 0 || ch.LateMsgs != 0 {
				t.Fatalf("round %d channel %d: losses on perfect links: %+v", round, ci, ch)
			}
		}
	}
}

// TestSingleChannelConvergence: the message-passing protocol must reach
// the sequential simulator's equilibrium quality — near-optimal welfare in
// the tail — on the paper's small scenario (10 peers, 4 helpers).
func TestSingleChannelConvergence(t *testing.T) {
	const rounds = 3000
	rt, err := New(oneChannelConfig(10, 4, 2024))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tailWelfare, tailOpt := 0.0, 0.0
	for round := 0; round < rounds; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		if round < rounds/2 {
			continue
		}
		ch := &stats.Channels[0]
		tailWelfare += ch.Welfare
		for _, c := range ch.Capacities {
			tailOpt += c
		}
	}
	if frac := tailWelfare / tailOpt; frac < 0.93 {
		t.Fatalf("tail welfare fraction = %g, want >= 0.93", frac)
	}
}

// TestIdlePoolHelpersStep pins the helper node's contract that the
// environment moves once per round whatever the load: on one channel with
// more pool helpers than peers, so that helpers sit idle, every round's
// capacities equal those of a core.System twin driven by Step.
func TestIdlePoolHelpersStep(t *testing.T) {
	const peers, helpers, seed, rounds = 3, 8, 99, 200
	rt, err := New(oneChannelConfig(peers, helpers, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	twin, err := core.New(core.Config{NumPeers: peers, Helpers: uniformHelpers(helpers), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for round := 0; round < rounds; round++ {
		stats, err := rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
		res, err := twin.Step()
		if err != nil {
			t.Fatal(err)
		}
		ch := &stats.Channels[0]
		if !slices.Equal(ch.Capacities, res.Capacities) {
			t.Fatalf("round %d: capacities %v, twin's %v (loads %v)", round, ch.Capacities, res.Capacities, ch.Loads)
		}
		for _, n := range ch.Loads {
			if n == 0 {
				idle++
			}
		}
	}
	if idle == 0 {
		t.Fatal("no pool helper sat idle")
	}
}

// TestDeterministicAcrossRuns pins that the concurrency never leaks into
// results: two identical deployments produce identical welfare streams, on
// four channels and on one.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    func() Config
		rounds int
	}{
		{"four channels", func() Config { return fourChannelConfig(77) }, 80},
		{"one channel", func() Config { return oneChannelConfig(8, 3, 77) }, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			collect := func() []float64 {
				rt, err := New(tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				var welfare []float64
				for round := 0; round < tc.rounds; round++ {
					stats, err := rt.StepRound()
					if err != nil {
						t.Fatal(err)
					}
					sum := 0.0
					for _, ch := range stats.Channels {
						sum += ch.Welfare
					}
					welfare = append(welfare, sum)
				}
				return welfare
			}
			a, b := collect(), collect()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d: %g vs %g — concurrency broke determinism", i, a[i], b[i])
				}
			}
		})
	}
}

// TestMembershipOps drives joins and departures through the op queue and
// checks the next round reflects them.
func TestMembershipOps(t *testing.T) {
	rt, err := New(fourChannelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := rt.AddPeer(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.RemovePeer(0, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Channels[2].Actions); got != 8 {
		t.Fatalf("channel 2 has %d peers after 3 joins, want 8", got)
	}
	if got := len(stats.Channels[0].Actions); got != 19 {
		t.Fatalf("channel 0 has %d peers after departure, want 19", got)
	}
}

// TestHelperMigrationHandsOff moves a helper between channels through the
// control-message path and verifies the pools, then moves it back.
func TestHelperMigrationHandsOff(t *testing.T) {
	cfg := fourChannelConfig(9)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Helper 0 starts on channel 0 at local index 0 (ids 0 and 4 assigned
	// round-robin). Move it to channel 1, then back.
	spec := cfg.Helpers[0]
	if err := rt.AddHelper(1, 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.StepRound()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Channels[1].Loads); got != 3 {
		t.Fatalf("gaining channel pool %d, want 3", got)
	}
	if got := len(stats.Channels[0].Loads); got != 1 {
		t.Fatalf("losing channel pool %d, want 1", got)
	}
	// Round trip: channel 1's pool is now [1, 5, 0]; helper 0 is local 2.
	if err := rt.AddHelper(0, 0, spec); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		stats, err = rt.StepRound()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(stats.Channels[0].Loads); got != 2 {
		t.Fatalf("round-trip pool %d, want 2", got)
	}
}

// TestReadmitAndMigrateSameRound pins the hand-off order: a round that
// readmits a helper into one channel and migrates it to another makes both
// managers send the node an ownership hand-off, and the two race to its
// inbox. The node must keep the later AddHelper call's route; when the
// older hand-off won, the gaining manager waited forever for a reply.
func TestReadmitAndMigrateSameRound(t *testing.T) {
	for _, move := range []struct{ from, to int }{{0, 1}, {1, 0}} {
		t.Run(fmt.Sprintf("%d-to-%d", move.from, move.to), func(t *testing.T) {
			cfg := fourChannelConfig(4)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Helper h starts on channel h with pool [h, h+4].
			h := move.from
			spec := cfg.Helpers[h]
			var stats *RoundStats
			run := func() (err error) {
				// Evict: the pool becomes [h+4].
				if err = rt.RemoveHelper(move.from, 0, h); err != nil {
					return err
				}
				if _, err = rt.StepRound(); err != nil {
					return err
				}
				// Readmit ([h+4, h]), then migrate away in the same round.
				if err = rt.AddHelper(move.from, h, spec); err != nil {
					return err
				}
				if err = rt.AddHelper(move.to, h, spec); err != nil {
					return err
				}
				if err = rt.RemoveHelper(move.from, 1, h); err != nil {
					return err
				}
				for round := 0; round < 10 && err == nil; round++ {
					stats, err = rt.StepRound()
				}
				return err
			}
			done := make(chan error, 1)
			go func() { done <- run() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("round deadlocked: the gaining manager never got its helper's reply")
			}
			defer rt.Close()
			if got := stats.Channels[move.to].PoolIDs; !slices.Equal(got, []int{move.to, move.to + 4, h}) {
				t.Fatalf("gaining channel pool %v", got)
			}
			if got := stats.Channels[move.from].PoolIDs; !slices.Equal(got, []int{h + 4}) {
				t.Fatalf("losing channel pool %v", got)
			}
		})
	}
}

// TestRemoveLastHelperSurfaces pins the failure mode: migrating a
// channel's only helper away without a replacement must surface an error
// (core refuses to leave a system helperless), not corrupt the protocol —
// and Close must still join every node.
func TestRemoveLastHelperSurfaces(t *testing.T) {
	cfg := Config{
		Channels: []ChannelConfig{
			{Name: "a", Seed: 1, InitialPeers: 4, DemandPerPeer: 500},
			{Name: "b", Seed: 2, InitialPeers: 4, DemandPerPeer: 500},
		},
		Helpers: uniformHelpers(2),
		Assign:  []int{0, 1},
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("stripping a channel's last helper did not surface")
	}
}

// TestLossyLinksDegrade runs the same deployment under increasingly lossy
// links: drops and delays must be counted separately, unserved peers must
// appear, and observed welfare must fall (full drop ⇒ zero welfare).
func TestLossyLinksDegrade(t *testing.T) {
	run := func(link LinkModel) (welfare float64, unserved, lost, late int) {
		cfg := fourChannelConfig(33)
		cfg.Link = link
		cfg.LinkSeed = 99
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for round := 0; round < 60; round++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range stats.Channels {
				welfare += ch.Welfare
				unserved += ch.Unserved
				lost += ch.LostMsgs
				late += ch.LateMsgs
			}
		}
		return welfare, unserved, lost, late
	}
	clean, cleanUnserved, cleanLost, cleanLate := run(nil)
	if cleanUnserved != 0 || cleanLost != 0 || cleanLate != 0 {
		t.Fatalf("perfect links counted losses: unserved=%d lost=%d late=%d",
			cleanUnserved, cleanLost, cleanLate)
	}
	lossy, lossyUnserved, lossyLost, lossyLate := run(Lossy{DropProb: 0.3})
	if lossyUnserved == 0 || lossyLost == 0 {
		t.Fatalf("30%% drop counted no losses: unserved=%d lost=%d", lossyUnserved, lossyLost)
	}
	if lossyLate != 0 {
		t.Fatalf("drop-only link counted %d late messages", lossyLate)
	}
	if lossy >= clean {
		t.Fatalf("30%% drop welfare %g not below clean %g", lossy, clean)
	}
	_, lateUnserved, lateLost, lateLate := run(Lossy{DelayProb: 0.3, MaxDelay: 2})
	if lateLate == 0 || lateUnserved == 0 {
		t.Fatalf("30%% delay counted no late messages: unserved=%d late=%d", lateUnserved, lateLate)
	}
	if lateLost != 0 {
		t.Fatalf("delay-only link counted %d drops", lateLost)
	}
	dead, _, _, _ := run(Lossy{DropProb: 1})
	if dead != 0 {
		t.Fatalf("100%% drop still realized welfare %g", dead)
	}
}

// TestLossyDeterministic pins that lossy runs replay exactly for a fixed
// LinkSeed despite every link drawing from its own stream concurrently.
func TestLossyDeterministic(t *testing.T) {
	collect := func() []float64 {
		cfg := fourChannelConfig(21)
		cfg.Link = Lossy{DropProb: 0.2, DelayProb: 0.2, MaxDelay: 3}
		cfg.LinkSeed = 4
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		var welfare []float64
		for round := 0; round < 50; round++ {
			stats, err := rt.StepRound()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, ch := range stats.Channels {
				sum += ch.Welfare
			}
			welfare = append(welfare, sum)
		}
		return welfare
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestNewLossyValidation(t *testing.T) {
	if _, err := NewLossy(-0.1, 0, 0); err == nil {
		t.Fatal("negative drop accepted")
	}
	if _, err := NewLossy(0, 1.5, 2); err == nil {
		t.Fatal("delay prob > 1 accepted")
	}
	// NaN fails every comparison, so a range check written as "reject
	// below 0 or above 1" lets it through, and a NaN DropProb never drops.
	if _, err := NewLossy(math.NaN(), 0, 0); err == nil || !strings.Contains(err.Error(), "DropProb") {
		t.Fatalf("NaN drop: err = %v, want one naming DropProb", err)
	}
	if _, err := NewLossy(0, math.NaN(), 1); err == nil || !strings.Contains(err.Error(), "DelayProb") {
		t.Fatalf("NaN delay: err = %v, want one naming DelayProb", err)
	}
	if _, err := NewLossy(math.Inf(1), 0, 0); err == nil {
		t.Fatal("+Inf drop accepted")
	}
	if _, err := NewLossy(0, 0.5, 0); err == nil {
		t.Fatal("delay without max accepted")
	}
	l, err := NewLossy(0.5, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	drops, delays := 0, 0
	for k := 0; k < 1000; k++ {
		d, drop := l.Deliver(r, k)
		if drop {
			drops++
		} else if d > 0 {
			delays++
			if d > 2 {
				t.Fatalf("delay %d beyond MaxDelay", d)
			}
		}
	}
	if drops == 0 || delays == 0 {
		t.Fatalf("degenerate sampling: %d drops, %d delays", drops, delays)
	}
}

// TestCloseBeforeStart covers the construct-then-abandon path: no
// goroutines were started, Close must still be clean and idempotent.
func TestCloseBeforeStart(t *testing.T) {
	rt, err := New(fourChannelConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("StepRound on closed runtime accepted")
	}
	if err := rt.AddPeer(0); err == nil {
		t.Fatal("AddPeer on closed runtime accepted")
	}
}

// TestErrorKeepsProtocolAlive pins the failure contract: after a channel
// errors, StepRound keeps returning the error (without deadlocking) and
// Close still joins everything.
func TestErrorKeepsProtocolAlive(t *testing.T) {
	rt, err := New(fourChannelConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// An out-of-range departure poisons channel 3 at the next round.
	if err := rt.RemovePeer(3, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("invalid op did not surface")
	}
	// Healthy channels keep simulating; the failed one keeps reporting —
	// with zeroed stats, not its last good round's values.
	stats, err := rt.StepRound()
	if err == nil {
		t.Fatal("sticky error cleared")
	}
	if stats.Channels[0].Welfare <= 0 {
		t.Fatal("healthy channel stopped simulating")
	}
	dead := stats.Channels[3]
	if dead.Welfare != 0 || dead.OptWelfare != 0 || len(dead.Actions) != 0 || dead.Played != 0 {
		t.Fatalf("failed channel reports stale stats: %+v", dead)
	}
}

// TestCloseAfterFailedMigration pins the orphaned-node fix: when a
// migration half-applies — the losing manager drops the helper but the
// gaining manager's AddHelper fails, so the ownership hand-off never
// happens — the node belongs to no manager's pool, and Close must still
// stop it (the coordinator stops nodes directly) rather than deadlock.
func TestCloseAfterFailedMigration(t *testing.T) {
	cfg := fourChannelConfig(8)
	cfg.UtilityScale = 900 // the default helpers' max level
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	// Helper 0 lives on channel 0. The gaining channel rejects the spec
	// (level above the shared utility scale), the losing channel's removal
	// succeeds: helper node 0 is now orphaned.
	bad := core.HelperSpec{Levels: []float64{5000}, InitState: 0}
	if err := rt.AddHelper(1, 0, bad); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveHelper(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StepRound(); err == nil {
		t.Fatal("failed migration did not surface")
	}
	done := make(chan struct{})
	go func() {
		rt.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked on the orphaned helper node")
	}
}

// fixedSelector always picks helper 0 — the degenerate all-on-one path.
type fixedSelector struct{ m int }

func (f fixedSelector) Select(*xrand.Rand) int                   { return 0 }
func (f fixedSelector) Update(action int, utility float64) error { return nil }
func (f fixedSelector) NumActions() int                          { return f.m }

// rogueSelector picks an action outside its range.
type rogueSelector struct{ m int }

func (r rogueSelector) Select(*xrand.Rand) int                   { return 99 }
func (r rogueSelector) Update(action int, utility float64) error { return nil }
func (r rogueSelector) NumActions() int                          { return r.m }

// TestPluggablePolicies runs a non-learning policy through the protocol:
// the all-on-one policy must load only helper 0 of every channel, and a
// policy's out-of-range action must surface from StepRound.
func TestPluggablePolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"four channels", fourChannelConfig(3)},
		{"one channel", oneChannelConfig(6, 2, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Factory = func(_, m int, _ float64) (core.Selector, error) {
				return fixedSelector{m: m}, nil
			}
			rt, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for round := 0; round < 50; round++ {
				stats, err := rt.StepRound()
				if err != nil {
					t.Fatal(err)
				}
				for ci, ch := range stats.Channels {
					if ch.Loads[0] != len(ch.Actions) {
						t.Fatalf("round %d channel %d: fixed policy loads %v", round, ci, ch.Loads)
					}
				}
			}
		})
	}
	t.Run("out of range action", func(t *testing.T) {
		cfg := oneChannelConfig(3, 2, 9)
		cfg.Factory = func(_, m int, _ float64) (core.Selector, error) {
			return rogueSelector{m: m}, nil
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if _, err := rt.StepRound(); err == nil {
			t.Fatal("out-of-range policy action not surfaced")
		}
	})
}
