package distsim

import "fmt"

// HelperCrash is one scheduled fail-stop episode: the helper is crashed
// for every round in [From, Until) and recovers at round Until. While
// crashed the helper neither hears attach batches nor replies with
// capacity — its peers realize rate zero — but its bandwidth Markov chain
// keeps advancing (the environment does not pause for a dead process), so
// runs with and without the crash consume identical randomness.
type HelperCrash struct {
	Helper int
	From   int
	Until  int
}

// Partition is one scheduled regional partition: for every round in
// [From, Until) the named fault domain is cut off from every other
// domain. Helpers and channels in the partitioned domain still reach
// each other; only cross-domain traffic is severed — the correlated
// regional failure model, as opposed to the iid per-message losses of a
// LinkModel.
type Partition struct {
	Domain int
	From   int
	Until  int
}

// FaultPlan is the deterministic fault schedule layered on top of the
// LinkModel. The LinkModel stays the per-message stochastic layer (iid
// drops and delays); the plan adds scheduled, correlated faults —
// fail-stop helper crashes with recovery, and regional partitions over
// fault domains — plus the queueing semantics switch. The plan itself
// consumes no randomness, and fault verdicts are applied after the link
// draws so a run with a plan consumes the exact random streams of the
// same run without one: lossy faulty runs stay bit-reproducible for a
// fixed (Config, LinkSeed), however the managers are forked.
type FaultPlan struct {
	// HelperDomains maps each global helper id to its fault domain (nil
	// places every helper in domain 0). Length must match Config.Helpers.
	HelperDomains []int
	// ChannelDomains maps each channel to the fault domain its manager
	// lives in (nil places every channel in domain 0). Length must match
	// Config.Channels.
	ChannelDomains []int
	// Crashes schedules fail-stop helper episodes.
	Crashes []HelperCrash
	// Partitions schedules regional partition windows.
	Partitions []Partition
	// Queueing switches delayed attach batches from loss semantics to
	// queueing semantics: a late batch is buffered at the helper and
	// served one round later — the peers it covers stall for a round and
	// then receive the deferred media, so delay degrades service instead
	// of destroying it. Drops, crashes and partitions remain losses.
	Queueing bool
}

// Validate checks the plan against the deployment shape.
func (p *FaultPlan) Validate(numHelpers, numChannels int) error {
	if p.HelperDomains != nil && len(p.HelperDomains) != numHelpers {
		return fmt.Errorf("distsim: FaultPlan.HelperDomains has %d entries for %d helpers", len(p.HelperDomains), numHelpers)
	}
	for h, d := range p.HelperDomains {
		if d < 0 {
			return fmt.Errorf("distsim: FaultPlan.HelperDomains[%d] = %d", h, d)
		}
	}
	if p.ChannelDomains != nil && len(p.ChannelDomains) != numChannels {
		return fmt.Errorf("distsim: FaultPlan.ChannelDomains has %d entries for %d channels", len(p.ChannelDomains), numChannels)
	}
	for ci, d := range p.ChannelDomains {
		if d < 0 {
			return fmt.Errorf("distsim: FaultPlan.ChannelDomains[%d] = %d", ci, d)
		}
	}
	for i, c := range p.Crashes {
		if c.Helper < 0 || c.Helper >= numHelpers {
			return fmt.Errorf("distsim: FaultPlan.Crashes[%d] helper %d of %d", i, c.Helper, numHelpers)
		}
		if c.From < 0 || c.Until < c.From {
			return fmt.Errorf("distsim: FaultPlan.Crashes[%d] window [%d, %d)", i, c.From, c.Until)
		}
	}
	for i, w := range p.Partitions {
		if w.Domain < 0 {
			return fmt.Errorf("distsim: FaultPlan.Partitions[%d] domain %d", i, w.Domain)
		}
		if w.From < 0 || w.Until < w.From {
			return fmt.Errorf("distsim: FaultPlan.Partitions[%d] window [%d, %d)", i, w.From, w.Until)
		}
	}
	return nil
}

// Crashed reports whether the helper is inside any scheduled crash
// window at the given round.
func (p *FaultPlan) Crashed(helper, round int) bool {
	for _, c := range p.Crashes {
		if c.Helper == helper && round >= c.From && round < c.Until {
			return true
		}
	}
	return false
}

func (p *FaultPlan) helperDomain(h int) int {
	if p.HelperDomains == nil {
		return 0
	}
	return p.HelperDomains[h]
}

func (p *FaultPlan) channelDomain(ci int) int {
	if p.ChannelDomains == nil {
		return 0
	}
	return p.ChannelDomains[ci]
}

func (p *FaultPlan) partitioned(domain, round int) bool {
	for _, w := range p.Partitions {
		if w.Domain == domain && round >= w.From && round < w.Until {
			return true
		}
	}
	return false
}

// Unreachable reports whether the helper cannot exchange messages with
// the channel's manager at the given round: the helper is crashed, or a
// partition separates their fault domains (a partitioned domain keeps
// its intra-domain links).
func (p *FaultPlan) Unreachable(helper, channel, round int) bool {
	if p.Crashed(helper, round) {
		return true
	}
	hd, cd := p.helperDomain(helper), p.channelDomain(channel)
	if hd == cd {
		return false
	}
	return p.partitioned(hd, round) || p.partitioned(cd, round)
}
