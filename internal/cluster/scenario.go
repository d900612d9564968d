package cluster

import (
	"fmt"
	"math"

	"rths/internal/alloc"
	"rths/internal/core"
	"rths/internal/trace"
)

// ZipfChannels builds `channels` ChannelSpecs whose initial audiences split
// `totalPeers` by a Zipf popularity law with exponent zipfS (channel 0 most
// popular), each streaming at the given bitrate. The split reuses the
// largest-remainder rounding of alloc.Proportional, so the audiences sum
// exactly to totalPeers and every channel receives at least one viewer when
// totalPeers >= channels.
func ZipfChannels(channels, totalPeers int, zipfS, bitrate float64) ([]ChannelSpec, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("cluster: ZipfChannels with %d channels", channels)
	}
	if totalPeers < 0 {
		return nil, fmt.Errorf("cluster: ZipfChannels with %d peers", totalPeers)
	}
	if !(bitrate > 0 && bitrate <= math.MaxFloat64) { // NaN fails too
		return nil, fmt.Errorf("cluster: ZipfChannels bitrate %g must be finite and positive", bitrate)
	}
	shares, err := trace.ChannelDemand(channels, zipfS)
	if err != nil {
		return nil, err
	}
	demand := make([]alloc.Channel, channels)
	for ci, s := range shares {
		demand[ci] = alloc.Channel{Demand: s}
	}
	counts, err := alloc.Proportional(demand, totalPeers)
	if err != nil {
		return nil, err
	}
	specs := make([]ChannelSpec, channels)
	for ci := range specs {
		specs[ci] = ChannelSpec{
			Name:         fmt.Sprintf("ch%03d", ci),
			Bitrate:      bitrate,
			InitialPeers: counts[ci],
		}
	}
	return specs, nil
}

// UniformHelpers replicates the given helper spec n times — the homogeneous
// global pool the paper's evaluation uses.
func UniformHelpers(n int, spec core.HelperSpec) []core.HelperSpec {
	out := make([]core.HelperSpec, n)
	for j := range out {
		out[j] = spec
	}
	return out
}
