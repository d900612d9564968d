package forkjoin

import (
	"sync/atomic"
	"testing"
	"time"
)

// counts records how often each index ran.
type counts struct{ hits []atomic.Int32 }

func (c *counts) Do(i int) { c.hits[i].Add(1) }

func (c *counts) check(t *testing.T, label string) {
	t.Helper()
	for i := range c.hits {
		if got := c.hits[i].Swap(0); got != 1 {
			t.Fatalf("%s: index %d ran %d times, want 1", label, i, got)
		}
	}
}

// Every index runs exactly once, inline and at every width, however the
// width compares with n.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	var g Group
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		c := &counts{hits: make([]atomic.Int32, n)}
		for _, width := range []int{0, 1, 2, 3, 4, 8, 300} {
			for rep := 0; rep < 20; rep++ {
				g.Run(n, width, c)
				c.check(t, "run")
			}
		}
	}
}

// A ticket that reaches a worker after its fork has finished claims
// nothing; queued ahead of the next fork on the same Group, it joins
// that fork like any fresh ticket.
func TestLateWakeUpDoesNoHarm(t *testing.T) {
	var g Group
	c := &counts{hits: make([]atomic.Int32, 16)}
	g.Run(16, 2, c)
	c.check(t, "first fork")
	for k := 0; k < 4; k++ {
		tickets <- &g
	}
	for rep := 0; rep < 50; rep++ {
		g.Run(16, 3, c)
		c.check(t, "after late tickets")
	}
}

// nested forks blocks from inside every outer index, each on the outer
// index's own Group, the way channel managers stepped on the executor
// fork blocks of their peers.
type nested struct {
	inner []Group
	hits  [][]atomic.Int32
	width int
}

func (s *nested) Do(i int) {
	s.inner[i].Run(len(s.hits[i]), s.width, &innerTask{hits: s.hits[i]})
}

type innerTask struct{ hits []atomic.Int32 }

func (t *innerTask) Do(j int) {
	// Uneven work, so lanes finish out of step and claim across forks.
	x := 0
	for k := 0; k < (j%7)*500; k++ {
		x += k
	}
	if x >= 0 {
		t.hits[j].Add(1)
	}
}

// Forks nested inside forks complete at every width: the caller of an
// inner fork waits only for indices that a running lane has claimed, so
// no lane ever waits on a worker that is busy stepping another outer
// index. Under -race this also checks that the join publishes every
// lane's writes to the caller.
func TestNestedForksFinish(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var outer Group
		for _, width := range []int{1, 2, 3, 5} {
			s := &nested{inner: make([]Group, 9), hits: make([][]atomic.Int32, 9), width: width}
			for i := range s.hits {
				s.hits[i] = make([]atomic.Int32, 3+5*i)
			}
			for rep := 0; rep < 30; rep++ {
				outer.Run(len(s.hits), width, s)
				for i := range s.hits {
					for j := range s.hits[i] {
						if got := s.hits[i][j].Swap(0); got != 1 {
							t.Errorf("width %d: outer %d inner %d ran %d times", width, i, j, got)
							return
						}
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("nested forks deadlocked")
	}
}

type nop struct{}

func (nop) Do(int) {}

// A fork allocates nothing once its Group has run wide once.
func TestRunZeroAllocs(t *testing.T) {
	var g Group
	var task nop
	g.Run(8, 2, task)
	if allocs := testing.AllocsPerRun(500, func() { g.Run(8, 2, task) }); allocs != 0 {
		t.Fatalf("a fork allocates %g objects, want 0", allocs)
	}
}

func TestGateWidth(t *testing.T) {
	for _, tc := range []struct {
		gate         Gate
		n, work, out int
	}{
		{Gate{Procs: 1, MinWork: 0}, 8, 100, 1},
		{Gate{Procs: 2, MinWork: 50}, 8, 49, 1},
		{Gate{Procs: 2, MinWork: 50}, 8, 50, 2},
		{Gate{Procs: 4, MinWork: 0}, 3, 0, 3},
		{Gate{Procs: 4, MinWork: 0}, 1, 10, 1},
		{Gate{Procs: 8, MinWork: 10}, 100, 10, 8},
	} {
		if got := tc.gate.Width(tc.n, tc.work); got != tc.out {
			t.Errorf("%+v.Width(%d, %d) = %d, want %d", tc.gate, tc.n, tc.work, got, tc.out)
		}
	}
}
