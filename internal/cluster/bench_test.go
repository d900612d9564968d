package cluster

import (
	"testing"

	"rths/internal/core"
	"rths/internal/trace"
	"rths/internal/xrand"
)

// churnOnly is a backend that takes membership ops and does nothing else,
// so a benchmark of the churn surface times the director alone.
type churnOnly struct{ backend }

func (churnOnly) addPeer(int) error         { return nil }
func (churnOnly) removePeer(int, int) error { return nil }

// BenchmarkReplayChurn is the director's layer benchmark: a 4-channel
// cluster of 1,000 viewers replays a churn trace of leaves and switches,
// drawn as it goes. Each op is one round of it: a random viewer leaves, a
// fresh one joins a random channel and two random viewers zap to a
// random channel, through Apply, the path Replay takes. The backend
// takes the ops and does nothing, so the time is the director's lookups
// and membership edits.
func BenchmarkReplayChurn(b *testing.B) {
	const channels, viewers = 4, 1000
	cfg := Config{Helpers: UniformHelpers(channels, core.DefaultHelperSpec())}
	for range channels {
		cfg.Channels = append(cfg.Channels, ChannelSpec{Name: "ch", Bitrate: 500, InitialPeers: viewers / channels})
	}
	c, err := newCluster(cfg, func(*Cluster, Config, []uint64) (backend, error) { return churnOnly{}, nil })
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	next := 1 << 20
	apply := func(e trace.Event) {
		if err := c.Apply(e); err != nil {
			b.Fatal(err)
		}
	}
	randomViewer := func() int { return c.viewerIDs[rng.Intn(len(c.viewerIDs))] }
	b.ReportAllocs()
	for b.Loop() {
		apply(trace.Event{Kind: trace.Leave, PeerID: randomViewer()})
		apply(trace.Event{Kind: trace.Join, PeerID: next, Channel: rng.Intn(channels)})
		next++
		for range 2 {
			apply(trace.Event{Kind: trace.Switch, PeerID: randomViewer(), Channel: rng.Intn(channels)})
		}
	}
}
