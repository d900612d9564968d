package distsim

import (
	"fmt"

	"rths/internal/xrand"
)

// LinkModel adjudicates one data-plane message (an attach batch or a
// capacity reply). Deliver returns the message's delay in whole rounds and
// whether it is dropped outright. Under the round-synchronous protocol a
// data-plane message that misses its round deadline (delay > 0) is by
// default as good as lost for that round's service — the peers it covers
// realize rate zero — so delay and drop differ only in the loss
// accounting. FaultPlan.Queueing changes that default for attach batches:
// a late batch is buffered at the helper and served a round deferred. A
// nil LinkModel means perfect links and consumes no randomness.
//
// Implementations draw from the *xrand.Rand they are handed: every node
// gets a private stream split from Config.LinkSeed, so lossy runs are
// deterministic for a fixed (Config, LinkSeed) at any fork width.
type LinkModel interface {
	Deliver(r *xrand.Rand, round int) (delayRounds int, drop bool)
}

// Lossy is an iid link model: each message is dropped with probability
// DropProb; a surviving message is late with probability DelayProb, by a
// uniform 1..MaxDelay rounds.
//
// Zero-value contract (for literals that bypass NewLossy's validation):
// the zero value is a perfect link that consumes no randomness, and a
// literal with DelayProb > 0 and MaxDelay unset (or 1) delays exactly one
// round — Lossy{DelayProb: p} behaves draw-for-draw identically to
// NewLossy(0, p, 1), consuming one Float64 per adjudicated delay and
// never an extra Intn. Prefer NewLossy, which rejects out-of-range
// probabilities and a zero MaxDelay paired with DelayProb > 0.
type Lossy struct {
	DropProb  float64
	DelayProb float64
	MaxDelay  int
}

// NewLossy validates the parameters and returns the model. Both
// probabilities must lie in [0,1]; NaN fails the check, since a NaN
// probability never drops or delays anything.
func NewLossy(dropProb, delayProb float64, maxDelay int) (Lossy, error) {
	if !(dropProb >= 0 && dropProb <= 1) {
		return Lossy{}, fmt.Errorf("distsim: NewLossy DropProb=%g outside [0,1]", dropProb)
	}
	if !(delayProb >= 0 && delayProb <= 1) {
		return Lossy{}, fmt.Errorf("distsim: NewLossy DelayProb=%g outside [0,1]", delayProb)
	}
	if maxDelay < 0 || (delayProb > 0 && maxDelay == 0) {
		return Lossy{}, fmt.Errorf("distsim: NewLossy MaxDelay=%d with DelayProb=%g", maxDelay, delayProb)
	}
	return Lossy{DropProb: dropProb, DelayProb: delayProb, MaxDelay: maxDelay}, nil
}

// Deliver implements LinkModel.
func (l Lossy) Deliver(r *xrand.Rand, _ int) (int, bool) {
	if l.DropProb > 0 && r.Float64() < l.DropProb {
		return 0, true
	}
	if l.DelayProb > 0 && r.Float64() < l.DelayProb {
		// MaxDelay <= 1 (including the unvalidated literal's zero value)
		// is a deterministic one-round delay: no Intn draw, keeping the
		// literal and NewLossy(_, _, 1) stream-identical.
		if l.MaxDelay < 2 {
			return 1, false
		}
		return 1 + r.Intn(l.MaxDelay), false
	}
	return 0, false
}
