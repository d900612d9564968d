package streaming

import (
	"math"
	"testing"
)

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewServer(math.NaN()); err == nil {
		t.Fatal("NaN capacity accepted")
	}
}

func TestServerGrantsWithinCapacity(t *testing.T) {
	s, err := NewServer(1000)
	if err != nil {
		t.Fatal(err)
	}
	grants, err := s.ServeStage([]float64{200, 300})
	if err != nil {
		t.Fatal(err)
	}
	if grants[0] != 200 || grants[1] != 300 {
		t.Fatalf("underload grants = %v", grants)
	}
	if s.OverloadFraction() != 0 {
		t.Fatalf("OverloadFraction = %g", s.OverloadFraction())
	}
}

func TestServerScalesUnderOverload(t *testing.T) {
	s, err := NewServer(600)
	if err != nil {
		t.Fatal(err)
	}
	grants, err := s.ServeStage([]float64{400, 800})
	if err != nil {
		t.Fatal(err)
	}
	// Proportional scaling to capacity 600 of 1200 requested.
	if math.Abs(grants[0]-200) > 1e-9 || math.Abs(grants[1]-400) > 1e-9 {
		t.Fatalf("overload grants = %v", grants)
	}
	if s.OverloadFraction() != 1 {
		t.Fatalf("OverloadFraction = %g", s.OverloadFraction())
	}
	if math.Abs(s.MeanLoad()-1200) > 1e-9 || math.Abs(s.MeanGranted()-600) > 1e-9 {
		t.Fatalf("MeanLoad/MeanGranted = %g/%g", s.MeanLoad(), s.MeanGranted())
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s, err := NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ServeStage([]float64{-1}); err == nil {
		t.Fatal("negative request accepted")
	}
	if _, err := s.ServeStage([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN request accepted")
	}
}

func TestServerEmptyStats(t *testing.T) {
	s, err := NewServer(100)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanLoad() != 0 || s.MeanGranted() != 0 || s.OverloadFraction() != 0 || s.Stages() != 0 {
		t.Fatal("fresh server stats not zero")
	}
	if s.Capacity() != 100 {
		t.Fatalf("Capacity = %g", s.Capacity())
	}
}

func TestBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, 1); err == nil {
		t.Fatal("zero bitrate accepted")
	}
	if _, err := NewBuffer(300, -1); err == nil {
		t.Fatal("negative startup accepted")
	}
	b, err := NewBuffer(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Tick(-5); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestBufferSmoothPlayback(t *testing.T) {
	// Receiving exactly the bitrate with zero startup: plays every stage.
	b, err := NewBuffer(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100; s++ {
		played, err := b.Tick(300)
		if err != nil {
			t.Fatal(err)
		}
		if !played {
			t.Fatalf("stalled at stage %d with exact-rate delivery", s)
		}
	}
	if b.Continuity() != 1 {
		t.Fatalf("Continuity = %g", b.Continuity())
	}
	if b.Played() != 100 || b.Stalled() != 0 {
		t.Fatalf("played/stalled = %d/%d", b.Played(), b.Stalled())
	}
}

func TestBufferStartupDelay(t *testing.T) {
	// Startup threshold of 2 stages of media at exact rate: the first tick
	// leaves the buffer below the threshold (stall); the second reaches it
	// and playback starts.
	b, err := NewBuffer(300, 2)
	if err != nil {
		t.Fatal(err)
	}
	played, err := b.Tick(300)
	if err != nil {
		t.Fatal(err)
	}
	if played {
		t.Fatal("played before reaching the startup threshold")
	}
	played, err = b.Tick(300)
	if err != nil {
		t.Fatal(err)
	}
	if !played {
		t.Fatal("did not start playing after threshold")
	}
}

func TestBufferUnderflowStalls(t *testing.T) {
	b, err := NewBuffer(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Half-rate delivery: roughly one play per two stages in steady state.
	plays := 0
	for s := 0; s < 200; s++ {
		p, err := b.Tick(150)
		if err != nil {
			t.Fatal(err)
		}
		if p {
			plays++
		}
	}
	if plays < 80 || plays > 120 {
		t.Fatalf("half-rate plays = %d of 200, want ~100", plays)
	}
	c := b.Continuity()
	if c < 0.4 || c > 0.6 {
		t.Fatalf("Continuity = %g, want ~0.5", c)
	}
}

func TestBufferLevelAccounting(t *testing.T) {
	b, err := NewBuffer(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Tick(250); err != nil { // +2.5 stages, -1 played
		t.Fatal(err)
	}
	if math.Abs(b.Level()-1.5) > 1e-12 {
		t.Fatalf("Level = %g, want 1.5", b.Level())
	}
}

func TestEmptyBufferContinuity(t *testing.T) {
	b, err := NewBuffer(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Continuity() != 1 {
		t.Fatalf("fresh continuity = %g", b.Continuity())
	}
}
