// Package par provides the repository's worker-pool primitives:
// bounded index fan-out and a bounded fork-join pool for
// divide-and-conquer recursion. Each runs on runtime.GOMAXPROCS(0)
// workers; there is no other worker count.
//
// Every parallel path in this repository is built on one rule, stated
// here because the primitives enforce the cheap half of it and code
// review must enforce the rest: workers run pure computations over
// disjoint data, and all shared-state mutation (tree wiring, pager
// charges, buffer moves) stays on the coordinating goroutine in the
// same order the serial algorithm uses. Under that rule the output of
// every pipeline stage is identical — bit for bit — at every
// GOMAXPROCS, and GOMAXPROCS=1 is the reference execution.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and returns when all calls have completed. Indices are claimed
// atomically, so fn must be safe to call concurrently for distinct i;
// writes fn makes are visible to the caller after Do returns. At
// GOMAXPROCS 1 (or n <= 1) everything runs inline, in index order,
// with no goroutines.
func Do(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FirstErr runs fn(i) for every i in [0, n) as Do does and returns the
// error of the lowest failing index — the same error a serial loop
// that kept only its first error would return, so error reporting
// stays deterministic under parallel execution. Every index runs
// regardless of earlier failures (the serial loops being replaced
// never short-circuit either).
func FirstErr(n int, fn func(i int) error) error {
	var (
		mu      sync.Mutex
		bestIdx = n
		bestErr error
	)
	Do(n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < bestIdx {
				bestIdx, bestErr = i, err
			}
			mu.Unlock()
		}
	})
	return bestErr
}

// Pool is a bounded fork-join pool for divide-and-conquer recursion
// (Mondrian halves). It caps in-flight forked tasks at GOMAXPROCS-1:
// the calling goroutine is the final worker, and when every slot is
// busy Fork degrades to an inline call, so recursion depth never
// deadlocks on pool capacity.
//
// A nil *Pool is valid and always runs inline.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool sized to GOMAXPROCS. At GOMAXPROCS 1 it
// returns nil: the always-inline pool.
func NewPool() *Pool {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		return nil
	}
	return &Pool{slots: make(chan struct{}, workers-1)}
}

// Fork runs fn, on another goroutine when a slot is free and inline
// otherwise, and returns a join function that blocks until fn has
// completed. Writes made by fn are visible after join returns. A panic
// inside a forked fn is captured and re-raised from join on the
// caller's goroutine, matching inline behavior.
//
// The intended shape is strict fork-join:
//
//	join := pool.Fork(func() { right = build(rhs) })
//	left = build(lhs)
//	join()
func (p *Pool) Fork(fn func()) (join func()) {
	if p == nil {
		fn()
		return func() {}
	}
	select {
	case p.slots <- struct{}{}:
	default:
		fn()
		return func() {}
	}
	done := make(chan struct{})
	var panicked any
	go func() {
		defer close(done)
		defer func() { <-p.slots }()
		defer func() { panicked = recover() }()
		fn()
	}()
	return func() {
		<-done
		if panicked != nil {
			// invariant: re-raising a worker's panic on the joining
			// goroutine — swallowing it would turn a crash into silent
			// data loss.
			panic(panicked)
		}
	}
}
