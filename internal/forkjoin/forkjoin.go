// Package forkjoin is the repo's one fork-join executor. Group.Run runs
// the indices 0..n-1 of a Task on the calling goroutine plus persistent
// workers and returns once every index has run.
//
// Lanes claim indices from one atomic counter, so a lane that finishes
// early takes the next index instead of idling. The caller always works
// too, and once no index is left to claim it waits only for the indices
// that running lanes have already claimed. A fork from inside a running
// Task (a channel manager that forks blocks of its peers) therefore
// cannot deadlock: its caller never waits for a worker that has not
// started, and a worker that is busy elsewhere simply does not help.
// Workers pick up tickets. A ticket that arrives after its fork has
// finished claims nothing, or helps with whatever fork its Group runs
// now, so a late wake-up does no harm.
//
// Nothing on a fork's path parks a goroutine or allocates: tickets are
// pointers in a buffered channel, sent and taken without blocking, and
// the caller waits for the last claimed index by yielding. Workers start
// on the first fork that needs them and live as long as the process.
// An idle worker polls for tickets, yielding between polls, and after a
// while sleeps between polls, backing off; it never blocks on the
// channel, since a parked goroutine's wake-up costs tens of microseconds
// on a virtual host and parking may allocate.
//
// The executor decides only where indices run, never what they compute.
// Callers keep every random draw and every floating-point reduction
// outside the Task, in a fixed order, so results do not depend on the
// fork width, the claim order or GOMAXPROCS.
package forkjoin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is the body of a fork. Do(i) runs index i. Distinct indices may
// run concurrently on different goroutines, so they must touch disjoint
// state.
type Task interface {
	Do(i int)
}

// Group is one fork site's reusable join state. The zero value is ready
// to use. A Group runs one fork at a time and must not be copied after
// its first fork; a Task may fork on a different Group.
type Group struct {
	// claim packs the fork's index count (high 32 bits) with the number
	// of claim attempts so far (low 32 bits): one atomic add both claims
	// the next index and reads the bound it must stay below.
	claim atomic.Uint64
	done  atomic.Uint64 // finished indices
	task  Task
}

const (
	// maxWorkers bounds the worker goroutines: a fork is never wider than
	// maxWorkers+1 lanes.
	maxWorkers = 255
	// spinPolls is how many times an idle worker polls, yielding between
	// polls, before it starts to sleep: on the order of a millisecond,
	// longer than the gaps between the forks of a running stage loop.
	spinPolls = 1 << 12
	// minSleep and maxSleep bound an idle worker's backoff once it
	// sleeps.
	minSleep = time.Millisecond
	maxSleep = 64 * time.Millisecond
)

var (
	// tickets carries wake-ups to idle workers, one Group pointer per
	// lane a fork asks for; it holds maxWorkers, so one fork's tickets
	// fit while the workers keep up. A ticket that does not fit is
	// dropped: the workers are all busy, and the fork goes on without
	// them.
	tickets = make(chan *Group, maxWorkers)
	// started counts the workers; growMu serializes starting more.
	started atomic.Int32
	growMu  sync.Mutex
)

// Run runs t.Do(i) for every i in [0, n) on at most width lanes (the
// caller plus width-1 workers) and returns when all have finished.
// width < 2 or n < 2 runs the indices inline, in order.
//
//rths:hotpath
func (g *Group) Run(n, width int, t Task) {
	if width < 2 || n < 2 {
		for i := 0; i < n; i++ {
			t.Do(i)
		}
		return
	}
	helpers := min(width, n, maxWorkers+1) - 1
	if int(started.Load()) < helpers {
		grow(helpers)
	}
	g.task = t
	g.done.Store(0)
	g.claim.Store(uint64(n) << 32)
wake:
	for k := 0; k < helpers; k++ {
		select {
		case tickets <- g:
		default:
			break wake
		}
	}
	if g.done.Add(g.help()) != uint64(n) {
		// Every index is claimed, and the lanes holding the rest are
		// running them: yield until they finish.
		for g.done.Load() != uint64(n) {
			runtime.Gosched()
		}
	}
}

// help claims and runs indices until none is left and returns how many
// it ran. Indices a lane has claimed are not counted in done until it
// returns, so the fork cannot finish, and the Group cannot start
// another, while it holds any: every index it ran belongs to one fork.
//
//rths:hotpath
func (g *Group) help() (ran uint64) {
	for {
		c := g.claim.Add(1)
		if i := c&(1<<32-1) - 1; i < c>>32 {
			g.task.Do(int(i))
			ran++
			continue
		}
		return ran
	}
}

// grow starts workers until at least n are running. Cold: runs on the
// first fork wider than any before it.
func grow(n int) {
	growMu.Lock()
	defer growMu.Unlock()
	for int(started.Load()) < n {
		started.Add(1)
		go work()
	}
}

// work is a worker: it helps whichever fork each ticket names, polling
// and then sleeping with backoff while no ticket comes.
func work() {
	// The first sleep allocates the goroutine's timer: take it now, not
	// in the middle of some stage loop's allocation-free window.
	time.Sleep(time.Nanosecond)
	idle, sleep := 0, minSleep
	for {
		select {
		case g := <-tickets:
			if ran := g.help(); ran > 0 {
				g.done.Add(ran)
			}
			idle, sleep = 0, minSleep
		default:
			if idle++; idle < spinPolls {
				runtime.Gosched()
			} else {
				time.Sleep(sleep)
				sleep = min(2*sleep, maxSleep)
			}
		}
	}
}

// Gate decides how wide a fork is worth making. A fork pays only on a
// host with several cores and only when its work outweighs the cost of
// waking workers, so below MinWork, or at Procs 1, a gate keeps the
// work inline.
type Gate struct {
	// Procs is the number of scheduler cores the gate may use.
	Procs int
	// MinWork is the smallest work, in the caller's unit, worth forking.
	MinWork int
}

// NewGate returns a gate over GOMAXPROCS as it is now, so a gate's
// decisions stay stable if GOMAXPROCS changes later.
func NewGate(minWork int) Gate {
	return Gate{Procs: runtime.GOMAXPROCS(0), MinWork: minWork}
}

// Width returns the lanes a fork of n indices that together cost work
// should use: min(Procs, n) when the gate is open, and 1 (inline) when
// Procs < 2, n < 2 or work < MinWork.
func (g Gate) Width(n, work int) int {
	if g.Procs < 2 || n < 2 || work < g.MinWork {
		return 1
	}
	return min(g.Procs, n)
}
