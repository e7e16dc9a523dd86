// Package fixture exercises the pagerconfine analyzer: pager method
// calls and coordinator-only functions must not be reachable from
// worker contexts (go statements, par.Pool.Fork closures, par.Do /
// par.FirstErr worker functions).
package fixture

import (
	"spatialanon/internal/pager"
	"spatialanon/internal/par"
)

type loader struct {
	pg   *pager.Pager
	pool *par.Pool
}

// coordinatorRead runs on the calling goroutine: allowed.
func (l *loader) coordinatorRead(id pager.PageID) ([]byte, error) {
	return l.pg.Read(id)
}

func (l *loader) badGo(id pager.PageID) {
	go func() {
		_, _ = l.pg.Read(id) // want `pagerconfine: \(\*pager\.Pager\)\.Read reachable from go statement`
	}()
}

func (l *loader) badFork(id pager.PageID) {
	join := l.pool.Fork(func() {
		_ = l.pg.MarkDirty(id) // want `pagerconfine: \(\*pager\.Pager\)\.MarkDirty reachable from par\.Pool worker closure`
	})
	join()
}

// touch pins a page: transitively a pager mutation.
func (l *loader) touch(id pager.PageID) {
	_ = l.pg.MarkDirty(id)
}

func (l *loader) badDo(n int) {
	par.Do(n, func(i int) {
		l.touch(pager.PageID(i)) // want `pagerconfine: touch → \(\*pager\.Pager\)\.MarkDirty reachable from par\.Do worker function`
	})
}

func (l *loader) pump() {
	_ = l.pg.Flush() // want `pagerconfine: pump → \(\*pager\.Pager\)\.Flush reachable from go statement`
}

func (l *loader) badNamedGo() {
	go l.pump()
}

// wire attaches planned nodes to the tree; tree wiring stays on the
// coordinator even though it never touches the pager directly.
// anonylint:coordinator-only
func (l *loader) wire() {}

func (l *loader) badWire() {
	join := l.pool.Fork(func() {
		l.wire() // want `pagerconfine: coordinator-only wire reachable from par\.Pool worker closure`
	})
	join()
}

// plan is pure computation over worker-owned data: allowed anywhere.
func plan(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func (l *loader) goodFork(xs []int) int {
	var total int
	join := l.pool.Fork(func() { total = plan(xs) })
	join()
	return total
}

func goodFirstErr(n int) error {
	return par.FirstErr(n, func(int) error { return nil })
}
