package cluster

import (
	"fmt"

	"rths/internal/telemetry"
)

// DetectorConfig enables the failure detector: the director counts
// consecutive missed capacity replies per helper (from the distsim
// runtime's per-round reply ledger) and, once a helper misses
// SuspectAfter replies in a row, evicts it through the regular helper
// churn path — RemoveHelper on its channel, which drives RemoveAction
// through every affected learner — and zeroes its expected capacity so
// the next re-allocation routes around it. After ReadmitAfter stages of
// probation the helper is readmitted via AddHelper (AddAction churn,
// fresh bandwidth chain); if it is still unreachable it just gets
// evicted again after SuspectAfter more misses. The detector never
// evicts a channel's last helper.
//
// The detector is deliberately schedule-blind: it sees only missed
// replies, never the FaultPlan, so an iid link drop burst can trigger a
// (correct, if unlucky) eviction exactly like a real crash. It reads the
// distsim runtime's capacity-reply ledger.
type DetectorConfig struct {
	// SuspectAfter is the consecutive-miss eviction threshold (default 3;
	// must be positive after defaulting).
	SuspectAfter int
	// ReadmitAfter is the post-eviction probation in stages before
	// readmission (default 30).
	ReadmitAfter int
}

// Detector defaults.
const (
	DefaultSuspectAfter = 3
	DefaultReadmitAfter = 30
)

func (d *DetectorConfig) validate() error {
	if d.SuspectAfter < 0 {
		return fmt.Errorf("cluster: Detector.SuspectAfter=%d", d.SuspectAfter)
	}
	if d.ReadmitAfter < 0 {
		return fmt.Errorf("cluster: Detector.ReadmitAfter=%d", d.ReadmitAfter)
	}
	return nil
}

func (d *DetectorConfig) applyDefaults() {
	if d.SuspectAfter == 0 {
		d.SuspectAfter = DefaultSuspectAfter
	}
	if d.ReadmitAfter == 0 {
		d.ReadmitAfter = DefaultReadmitAfter
	}
}

// detectorPass runs after each backend step (while c.stage still names
// the round just completed): it consumes the round's reply ledger, then
// applies evictions and probation readmissions. Backend ops enqueue for
// the next round, matching the regular churn discipline.
func (c *Cluster) detectorPass() error {
	c.backend.eachReply(func(h int, missed bool) {
		if missed {
			if c.downAt[h] < 0 {
				c.downAt[h] = c.stage
			}
			c.misses[h]++
			if c.misses[h] == c.detector.SuspectAfter {
				c.suspectedE++
				if c.trace != nil {
					e := telemetry.Ev(c.stage, c.epoch, telemetry.KindSuspect)
					e.Helper = h
					e.Channel = c.assign[h]
					e = e.WithValue(float64(c.misses[h]))
					c.trace.Emit(e)
				}
			}
			return
		}
		if c.wasEvicted[h] && c.downAt[h] >= 0 {
			// First clean reply after an eviction cycle: the helper's
			// outage ran from its first missed reply to now. The recover
			// event carries exactly the addend that feeds this epoch's
			// MeanTimeToRecover, so offline analyzers can reproduce it.
			outage := c.stage - c.downAt[h]
			c.recoverSum += float64(outage)
			c.recoverN++
			c.wasEvicted[h] = false
			if c.trace != nil {
				e := telemetry.Ev(c.stage, c.epoch, telemetry.KindRecover)
				e.Helper = h
				e.Channel = c.assign[h]
				c.trace.Emit(e.WithValue(float64(outage)))
			}
		}
		c.misses[h] = 0
		c.downAt[h] = -1
	})
	for h := range c.helpers {
		if c.evicted[h] || c.misses[h] < c.detector.SuspectAfter {
			continue
		}
		if err := c.evictHelper(h); err != nil {
			return err
		}
	}
	for h := range c.helpers {
		if c.evicted[h] && c.stage-c.evictedAt[h] >= c.detector.ReadmitAfter {
			if err := c.readmitHelper(h); err != nil {
				return err
			}
		}
	}
	return nil
}

// evictHelper removes helper h from its channel's pool through the
// regular churn path and zeroes its expected capacity so re-allocation
// routes demand around it. A channel's last helper is never evicted
// (the per-channel game needs a non-empty pool; it stays and keeps
// realizing zero rate for its peers).
func (c *Cluster) evictHelper(h int) error {
	ci := c.assign[h]
	st := c.channels[ci]
	if len(st.helperIDs) <= 1 {
		return nil
	}
	local := -1
	for j, id := range st.helperIDs {
		if id == h {
			local = j
			break
		}
	}
	if local < 0 {
		return fmt.Errorf("cluster: evict helper %d missing from channel %q", h, st.name)
	}
	if err := c.backend.removeHelper(ci, local, h); err != nil {
		return fmt.Errorf("cluster: evict helper %d from %q: %w", h, st.name, err)
	}
	st.helperIDs = append(st.helperIDs[:local], st.helperIDs[local+1:]...)
	c.evicted[h] = true
	c.wasEvicted[h] = true
	c.evictedAt[h] = c.stage
	c.expCaps[h] = 0
	c.evictedE++
	c.refreshHelpersDown()
	if c.trace != nil {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindEvict)
		e.Helper = h
		e.Channel = ci
		c.trace.Emit(e)
	}
	return nil
}

// readmitHelper returns helper h to its channel after probation: the
// regular AddHelper churn path (fresh bandwidth chain, AddAction through
// every learner), expected capacity restored so the allocator counts it
// again.
func (c *Cluster) readmitHelper(h int) error {
	ci := c.assign[h]
	st := c.channels[ci]
	if err := c.backend.addHelper(ci, h, c.helpers[h].spec); err != nil {
		return fmt.Errorf("cluster: readmit helper %d to %q: %w", h, st.name, err)
	}
	st.helperIDs = append(st.helperIDs, h)
	c.evicted[h] = false
	c.misses[h] = 0
	c.expCaps[h] = c.helpers[h].expCap
	c.readmittedE++
	c.refreshHelpersDown()
	if c.trace != nil {
		e := telemetry.Ev(c.stage, c.epoch, telemetry.KindReadmit)
		e.Helper = h
		e.Channel = ci
		c.trace.Emit(e)
	}
	return nil
}

// refreshHelpersDown re-counts the evicted set into the helpers-down
// gauge — called on every eviction and readmission so the gauge tracks
// detector verdicts between epoch boundaries too.
func (c *Cluster) refreshHelpersDown() {
	if !c.tel.enabled {
		return
	}
	down := 0
	for _, ev := range c.evicted {
		if ev {
			down++
		}
	}
	c.tel.helpersDown.Set(float64(down))
}
