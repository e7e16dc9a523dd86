package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn at GOMAXPROCS n and restores the previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestWorkers pins the worker-count rule: the count is GOMAXPROCS, and
// at GOMAXPROCS 1 there is no pool and Do runs inline in index order.
func TestWorkers(t *testing.T) {
	withProcs(1, func() {
		if p := NewPool(); p != nil {
			t.Fatalf("NewPool() at GOMAXPROCS 1 = %v, want nil", p)
		}
		var order []int // unsynchronized: the race detector flags any goroutine
		Do(5, func(i int) { order = append(order, i) })
		for i, v := range order {
			if i != v {
				t.Fatalf("Do at GOMAXPROCS 1 out of order: %v", order)
			}
		}
	})
	withProcs(4, func() {
		if p := NewPool(); p == nil || cap(p.slots) != 3 {
			t.Fatalf("NewPool() at GOMAXPROCS 4 = %v, want 3 slots", p)
		}
	})
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		withProcs(workers, func() {
			const n = 1000
			var hits [n]atomic.Int32
			Do(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
				}
			}
		})
	}
}

func TestDoZeroAndSerialOrder(t *testing.T) {
	withProcs(4, func() { Do(0, func(int) { t.Fatal("fn called for n=0") }) })
	withProcs(1, func() {
		var order []int
		Do(5, func(i int) { order = append(order, i) })
		for i, v := range order {
			if i != v {
				t.Fatalf("serial Do out of order: %v", order)
			}
		}
	})
}

func TestFirstErrLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withProcs(workers, func() {
			err := FirstErr(100, func(i int) error {
				if i%7 == 3 { // fails at 3, 10, 17, ...
					return fmt.Errorf("fail at %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail at 3" {
				t.Fatalf("workers=%d: got %v, want fail at 3", workers, err)
			}
		})
	}
	withProcs(8, func() {
		if err := FirstErr(50, func(int) error { return nil }); err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	})
}

func TestFirstErrRunsEveryIndex(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	withProcs(4, func() {
		err := FirstErr(64, func(i int) error {
			ran.Add(1)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v", err)
		}
	})
	if ran.Load() != 64 {
		t.Fatalf("ran %d of 64 indices", ran.Load())
	}
}

func TestPoolForkJoin(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		withProcs(workers, func() {
			p := NewPool()
			// Recursive sum via fork-join must equal the serial sum for
			// every pool size, including the nil (GOMAXPROCS 1) pool.
			var sum func(lo, hi int) int
			sum = func(lo, hi int) int {
				if hi-lo <= 4 {
					s := 0
					for i := lo; i < hi; i++ {
						s += i
					}
					return s
				}
				mid := (lo + hi) / 2
				var right int
				join := p.Fork(func() { right = sum(mid, hi) })
				left := sum(lo, mid)
				join()
				return left + right
			}
			const n = 1 << 12
			if got, want := sum(0, n), n*(n-1)/2; got != want {
				t.Fatalf("workers=%d: sum=%d want %d", workers, got, want)
			}
		})
	}
}

func TestPoolNilAlwaysInline(t *testing.T) {
	var p *Pool
	ran := false
	join := p.Fork(func() { ran = true })
	if !ran {
		t.Fatal("nil pool must run inline before Fork returns")
	}
	join()
}

func TestPoolForkRepanics(t *testing.T) {
	var p *Pool
	withProcs(4, func() { p = NewPool() })
	// Occupy no slots; fork should go to a goroutine and the panic
	// must resurface at join, not crash the process.
	join := p.Fork(func() { panic("kaboom") })
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", r)
		}
	}()
	join()
}
