// Package streaming models the data plane around the helper-selection
// control loop: the origin server with finite upload capacity that absorbs
// the requests helpers cannot serve (the Fig-5 accounting), and a
// chunk-level playback model (buffers, stalls, continuity) that turns
// received rates into the quality-of-experience numbers the paper's
// motivation talks about. It deliberately stays flow-level between peers
// and helpers — the paper's evaluation is rate-based — while the buffer
// model gives the examples a concrete QoE readout.
package streaming

import (
	"fmt"
	"math"
)

// Server is the origin streaming server. Peers direct their unmet demand
// (demand minus helper-provided rate) to it; the server grants bandwidth up
// to its capacity, proportionally scaling requests down under overload.
type Server struct {
	capacity float64
	// accounting
	stages       int
	totalLoad    float64
	totalGranted float64
	overloaded   int
}

// NewServer builds a server with the given upload capacity in kbps.
// A non-positive capacity is rejected.
func NewServer(capacity float64) (*Server, error) {
	if capacity <= 0 || math.IsNaN(capacity) {
		return nil, fmt.Errorf("streaming: server capacity %g", capacity)
	}
	return &Server{capacity: capacity}, nil
}

// Capacity returns the configured upload capacity.
func (s *Server) Capacity() float64 { return s.capacity }

// ServeStage takes the per-peer unmet demands for one stage and returns the
// granted top-up rates. If the sum of requests exceeds capacity, grants are
// scaled proportionally (max-min would also be defensible; proportional
// matches the paper's single bottleneck reading).
func (s *Server) ServeStage(requests []float64) ([]float64, error) {
	total := 0.0
	for i, r := range requests {
		if r < 0 || math.IsNaN(r) {
			return nil, fmt.Errorf("streaming: request[%d] = %g", i, r)
		}
		total += r
	}
	grants := make([]float64, len(requests))
	scale := 1.0
	if total > s.capacity {
		scale = s.capacity / total
		s.overloaded++
	}
	granted := 0.0
	for i, r := range requests {
		grants[i] = r * scale
		granted += grants[i]
	}
	s.stages++
	s.totalLoad += total
	s.totalGranted += granted
	return grants, nil
}

// Stages returns the number of served stages.
func (s *Server) Stages() int { return s.stages }

// MeanLoad returns the average requested load per stage.
func (s *Server) MeanLoad() float64 {
	if s.stages == 0 {
		return 0
	}
	return s.totalLoad / float64(s.stages)
}

// MeanGranted returns the average granted bandwidth per stage.
func (s *Server) MeanGranted() float64 {
	if s.stages == 0 {
		return 0
	}
	return s.totalGranted / float64(s.stages)
}

// OverloadFraction returns the fraction of stages the server was saturated.
func (s *Server) OverloadFraction() float64 {
	if s.stages == 0 {
		return 0
	}
	return float64(s.overloaded) / float64(s.stages)
}

// Buffer is one peer's playout buffer in a chunk-based live stream. Each
// stage it ingests the received rate, then drains one stage of playback if
// enough media is buffered; otherwise the stage counts as a stall.
type Buffer struct {
	bitrate float64 // media bitrate in kbps
	level   float64 // buffered media, in stage-lengths of playback
	target  float64 // startup/rebuffer threshold, in stages of media

	playing bool
	played  int
	stalled int
}

// NewBuffer builds a playout buffer for the given media bitrate (kbps) and
// startup threshold (stages of media to accumulate before playing).
func NewBuffer(bitrate, startupStages float64) (*Buffer, error) {
	if bitrate <= 0 || math.IsNaN(bitrate) {
		return nil, fmt.Errorf("streaming: bitrate %g", bitrate)
	}
	if startupStages < 0 {
		return nil, fmt.Errorf("streaming: startup threshold %g", startupStages)
	}
	return &Buffer{bitrate: bitrate, target: startupStages}, nil
}

// Tick advances one stage with the given received rate (kbps) and reports
// whether the stage played (true) or stalled (false).
func (b *Buffer) Tick(receivedKbps float64) (bool, error) {
	if receivedKbps < 0 || math.IsNaN(receivedKbps) {
		return false, fmt.Errorf("streaming: received rate %g", receivedKbps)
	}
	b.level += receivedKbps / b.bitrate // stages of media received this stage
	if !b.playing && b.level >= b.target {
		b.playing = true
	}
	if b.playing && b.level >= 1 {
		b.level--
		b.played++
		return true, nil
	}
	if b.playing {
		// Rebuffering: pause until the startup threshold is met again.
		b.playing = false
	}
	b.stalled++
	return false, nil
}

// Level returns the current buffer level in stages of media.
func (b *Buffer) Level() float64 { return b.level }

// Played returns the number of stages that played smoothly.
func (b *Buffer) Played() int { return b.played }

// Stalled returns the number of stalled stages (including startup).
func (b *Buffer) Stalled() int { return b.stalled }

// Continuity returns played / (played + stalled) ∈ [0,1] — the streaming
// continuity index.
func (b *Buffer) Continuity() float64 {
	total := b.played + b.stalled
	if total == 0 {
		return 1
	}
	return float64(b.played) / float64(total)
}
