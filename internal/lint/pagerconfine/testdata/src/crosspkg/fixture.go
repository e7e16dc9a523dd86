// Package fixture exercises pagerconfine across a package boundary: a
// worker closure that reaches the pager through another package's
// helper is flagged with the whole chain, and a goroutine declared to
// be a coordinator may own a pager.
package fixture

import (
	"spatialanon/internal/lint/pagerconfine/testdata/src/crosspkg/sib"
	"spatialanon/internal/pager"
	"spatialanon/internal/par"
)

func badDo(pg *pager.Pager, n int) {
	par.Do(n, func(i int) {
		sib.Touch(pg, pager.PageID(i)) // want `pagerconfine: sib\.Touch → \(\*pager\.Pager\)\.Read reachable from par\.Do worker function`
	})
}

func badGo(pg *pager.Pager) {
	go func() {
		sib.Relay(pg, 0) // want `pagerconfine: sib\.Relay → sib\.Touch → \(\*pager\.Pager\)\.Read reachable from go statement`
	}()
}

func badNamedGo(pg *pager.Pager) {
	go sib.Touch(pg, 0) // want `pagerconfine: sib\.Touch → \(\*pager\.Pager\)\.Read reachable from go statement`
}

func goodDo(xs []int, n int) {
	par.Do(n, func(int) { _ = sib.Sum(xs) })
}

type owner struct{ pg *pager.Pager }

// loop is the one goroutine that touches o.pg.
//
// anonylint:coordinator-only — start hands the pager to it
func (o *owner) loop() {
	sib.Touch(o.pg, 0)
}

// start launches a coordinator, not a worker.
func (o *owner) start() {
	go o.loop()
}

// misuse calls the coordinator's body from a worker.
func (o *owner) misuse(n int) {
	par.Do(n, func(int) {
		o.loop() // want `pagerconfine: coordinator-only loop reachable from par\.Do worker function`
	})
}
