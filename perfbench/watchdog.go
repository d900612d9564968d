package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// stallLimit is how long a run may go without progress before it fails.
// A distsim round whose capacity reply never arrives blocks its
// coordinator forever; that call has failed, and the run must report it
// as a failed operation instead of hanging or dying in the runtime's
// deadlock detector without a result.
const stallLimit = 60 * time.Second

// watch fails the run from its own goroutine once ops has not beaten for
// stallLimit: it counts the stalled call as failed, prints the result
// line and exits. The returned stop ends the watch and waits for its
// goroutine.
func watch(ops *counter, stdout, stderr io.Writer) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last, since := ops.beats.Load(), time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				if b := ops.beats.Load(); b != last {
					last, since = b, now
				} else if now.Sub(since) >= stallLimit {
					fmt.Fprintf(stderr, "perfbench: FAIL: no progress for %v: a cluster or layer call never returned\n", stallLimit)
					ops.failed.Add(1)
					os.Exit(printResult(ops, nil, stdout, stderr))
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
