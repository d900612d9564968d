// Package trace generates the synthetic workloads the multi-channel
// experiments replay: Zipf-distributed channel popularity (the standard
// model for P2P streaming channel audiences), Poisson peer arrivals,
// exponential session lifetimes, and channel-switching events. The paper
// evaluates on synthetic workloads too; this package makes those workloads
// explicit, seedable and replayable.
package trace

import (
	"fmt"
	"math"
	"sort"

	"rths/internal/xrand"
)

// EventKind discriminates churn events.
type EventKind int

// Event kinds.
const (
	// Join is a peer arriving and joining a channel.
	Join EventKind = iota + 1
	// Leave is a peer departing the system.
	Leave
	// Switch is a peer moving to a different channel.
	Switch
)

// stageOrder is the within-stage application order — the order
// GenerateChurn itself sequences a stage: departures free their slots
// first, survivors zap channels, and only then do new arrivals join.
// Workload.Events is sorted with this key, so a replay applies each
// stage's events exactly as the generator produced them.
func (k EventKind) stageOrder() int {
	switch k {
	case Leave:
		return 0
	case Switch:
		return 1
	case Join:
		return 2
	default:
		return 3
	}
}

func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Switch:
		return "switch"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one churn event at a stage.
type Event struct {
	Stage   int
	Kind    EventKind
	PeerID  int
	Channel int // target channel for Join/Switch; previous channel for Leave
}

// ChurnConfig parameterizes workload generation.
type ChurnConfig struct {
	// Horizon is the number of stages to generate events for.
	Horizon int
	// ArrivalRate is the expected number of peer arrivals per stage.
	ArrivalRate float64
	// MeanLifetime is the expected session length in stages.
	MeanLifetime float64
	// Channels is the number of live channels (>= 1).
	Channels int
	// ZipfS is the popularity skew exponent (0 = uniform).
	ZipfS float64
	// SwitchRate is the per-stage probability that an active peer switches
	// channels (0 disables switching).
	SwitchRate float64
	// Seed drives generation.
	Seed uint64
}

// validate rejects every out-of-range field. Each float check is written
// so NaN fails it too: a NaN rate or lifetime would otherwise switch a
// feature off silently or panic deep inside generation.
func (c ChurnConfig) validate() error {
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: Horizon=%d", c.Horizon)
	}
	if !(c.ArrivalRate >= 0 && c.ArrivalRate <= math.MaxFloat64) {
		return fmt.Errorf("trace: ArrivalRate=%g must be finite and non-negative", c.ArrivalRate)
	}
	if !(c.MeanLifetime > 0 && c.MeanLifetime <= math.MaxFloat64) {
		return fmt.Errorf("trace: MeanLifetime=%g must be finite and positive", c.MeanLifetime)
	}
	if c.Channels <= 0 {
		return fmt.Errorf("trace: Channels=%d", c.Channels)
	}
	if !(c.ZipfS >= 0 && c.ZipfS <= math.MaxFloat64) {
		return fmt.Errorf("trace: ZipfS=%g must be finite and non-negative", c.ZipfS)
	}
	if !(c.SwitchRate >= 0 && c.SwitchRate < 1) {
		return fmt.Errorf("trace: SwitchRate=%g outside [0,1)", c.SwitchRate)
	}
	return nil
}

// Workload is a generated, replayable churn trace.
type Workload struct {
	// Events are sorted by stage (ties: leaves before switches before
	// joins, then by peer id) so replays are deterministic. The tie-break
	// matches GenerateChurn's own within-stage sequencing — departures,
	// then channel zaps among the survivors, then arrivals — so applying
	// events in slice order reproduces the generator's causal order.
	Events []Event
	// Peak is the maximum number of concurrently active peers.
	Peak int
	// FinalActive is the number of peers active at the horizon.
	FinalActive int
}

// GenerateChurn produces a workload trace from the config.
func GenerateChurn(cfg ChurnConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := xrand.New(cfg.Seed)
	zipf := xrand.NewZipf(r, cfg.ZipfS, cfg.Channels)

	var events []Event
	type session struct {
		id      int
		channel int
		depart  int
	}
	active := make(map[int]*session)
	nextID := 0
	peak := 0
	for stage := 0; stage < cfg.Horizon; stage++ {
		// Departures scheduled for this stage.
		var leaving []int
		//rths:nondeterminism-ok keys are collected unordered, then sorted before any event is emitted
		for id, s := range active {
			if s.depart == stage {
				leaving = append(leaving, id)
			}
		}
		sort.Ints(leaving)
		for _, id := range leaving {
			events = append(events, Event{Stage: stage, Kind: Leave, PeerID: id, Channel: active[id].channel})
			delete(active, id)
		}
		// Channel switches.
		if cfg.SwitchRate > 0 && cfg.Channels > 1 {
			ids := make([]int, 0, len(active))
			//rths:nondeterminism-ok keys are collected unordered, then sorted before the RNG stream is consumed
			for id := range active {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				if r.Float64() < cfg.SwitchRate {
					to := zipf.Draw() - 1
					if to == active[id].channel {
						continue
					}
					active[id].channel = to
					events = append(events, Event{Stage: stage, Kind: Switch, PeerID: id, Channel: to})
				}
			}
		}
		// Arrivals.
		for a := r.Poisson(cfg.ArrivalRate); a > 0; a-- {
			ch := zipf.Draw() - 1
			life := int(r.Exp(1/cfg.MeanLifetime)) + 1
			s := &session{id: nextID, channel: ch, depart: stage + life}
			active[nextID] = s
			events = append(events, Event{Stage: stage, Kind: Join, PeerID: nextID, Channel: ch})
			nextID++
		}
		if len(active) > peak {
			peak = len(active)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Stage != events[j].Stage {
			return events[i].Stage < events[j].Stage
		}
		if a, b := events[i].Kind.stageOrder(), events[j].Kind.stageOrder(); a != b {
			return a < b
		}
		return events[i].PeerID < events[j].PeerID
	})
	return &Workload{Events: events, Peak: peak, FinalActive: len(active)}, nil
}

// OffsetPeerIDs shifts every event's peer id by base. Use it when the
// replaying system has pre-seeded peers occupying the low ids.
func (w *Workload) OffsetPeerIDs(base int) {
	for i := range w.Events {
		w.Events[i].PeerID += base
	}
}

// PerStage groups the workload's events by stage for replay: out[s] holds
// the events of stage s.
func (w *Workload) PerStage(horizon int) [][]Event {
	out := make([][]Event, horizon)
	for _, e := range w.Events {
		if e.Stage >= 0 && e.Stage < horizon {
			out[e.Stage] = append(out[e.Stage], e)
		}
	}
	return out
}

// ChannelDemand is a static popularity snapshot: expected audience share
// per channel under the Zipf exponent.
func ChannelDemand(channels int, zipfS float64) ([]float64, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("trace: channels=%d", channels)
	}
	if !(zipfS >= 0 && zipfS <= math.MaxFloat64) { // NaN fails too
		return nil, fmt.Errorf("trace: zipfS=%g must be finite and non-negative", zipfS)
	}
	out := make([]float64, channels)
	total := 0.0
	for k := 1; k <= channels; k++ {
		out[k-1] = 1 / math.Pow(float64(k), zipfS)
		total += out[k-1]
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}
