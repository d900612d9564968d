package distsim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"rths/internal/forkjoin"
)

// roundBits fingerprints one round: every channel's aggregates, rates,
// capacities and reply ledger, bitwise-comparable.
func roundBits(stats *RoundStats) []uint64 {
	var out []uint64
	for ci := range stats.Channels {
		ch := &stats.Channels[ci]
		out = append(out, math.Float64bits(ch.Welfare), math.Float64bits(ch.ServerLoad),
			uint64(ch.Played), uint64(ch.Stalled), uint64(ch.Unserved), uint64(ch.LostMsgs),
			uint64(ch.LateMsgs), uint64(ch.LateServed), uint64(ch.FaultMsgs), uint64(ch.Msgs))
		for _, r := range ch.Rates {
			out = append(out, math.Float64bits(r))
		}
		for _, c := range ch.Capacities {
			out = append(out, math.Float64bits(c))
		}
		for j, id := range ch.PoolIDs {
			miss := uint64(0)
			if ch.Missed[j] {
				miss = 1
			}
			out = append(out, uint64(id), miss)
		}
	}
	return out
}

// runNested steps a lossy, faulty deployment whose channels are each big
// enough for their own block gate (900 viewers on 15 to 17 helpers, at
// least 13,500 viewer-actions against core's 12,000), migrating a helper
// every few rounds. gate pins the manager fork; GOMAXPROCS at
// construction sets each channel's block gate (open at 2 and above).
func runNested(procs int, gate forkjoin.Gate) ([][]uint64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	helpers := uniformHelpers(64)
	assign := make([]int, len(helpers))
	for h := range assign {
		assign[h] = h % 4
	}
	cfg := Config{
		Helpers:      helpers,
		Assign:       assign,
		UtilityScale: 900,
		Link:         Lossy{DropProb: 0.02, DelayProb: 0.05, MaxDelay: 2},
		LinkSeed:     3,
		Faults: &FaultPlan{
			Queueing: true,
			Crashes:  []HelperCrash{{Helper: 5, From: 4, Until: 12}},
		},
	}
	for ci := 0; ci < 4; ci++ {
		cfg.Channels = append(cfg.Channels, ChannelConfig{
			Name: string(rune('a' + ci)), Seed: 90 + uint64(ci),
			InitialPeers: 900, DemandPerPeer: 500, StartupStages: 2,
		})
	}
	rt, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rt.SetPoolGate(gate)
	var out [][]uint64
	for r := 0; r < 24; r++ {
		if r%6 == 5 {
			// Move channel ci's first pool helper to the next channel.
			ci := (r / 6) % 4
			id := rt.stats.Channels[ci].PoolIDs[0]
			if err := rt.AddHelper((ci+1)%4, id, helpers[id]); err != nil {
				return nil, err
			}
			if err := rt.RemoveHelper(ci, 0, id); err != nil {
				return nil, err
			}
		}
		stats, err := rt.StepRound()
		if err != nil {
			return nil, err
		}
		out = append(out, roundBits(stats))
	}
	return out, nil
}

// Managers forked on the executor, each forking its channel's feedback
// pass and helper churn in peer blocks on the same executor, reproduce
// the all-inline rounds bit-for-bit — and finish: a manager that forks
// blocks from inside a pool lane waits only for blocks a running lane
// has claimed. Under -race this also checks that the two fork levels
// share no state.
func TestNestedForksBitIdentical(t *testing.T) {
	ref, err := runNested(1, forkjoin.Gate{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rounds [][]uint64
		err    error
	}
	done := make(chan result, 1)
	go func() {
		rounds, err := runNested(2, forkjoin.Gate{Procs: 4})
		done <- result{rounds, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		got := res.rounds
		for r := range ref {
			if len(got[r]) != len(ref[r]) {
				t.Fatalf("round %d: %d values, want %d", r, len(got[r]), len(ref[r]))
			}
			for x := range ref[r] {
				if got[r][x] != ref[r][x] {
					t.Fatalf("round %d value %d diverges with nested forks", r, x)
				}
			}
		}
	case <-time.After(120 * time.Second):
		t.Fatal("nested forks deadlocked")
	}
}
