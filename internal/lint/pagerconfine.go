package lint

import (
	"go/ast"
	"go/token"

	"spatialanon/internal/lint/analysis"
)

// pagerType is the confined type: every method call on it is a
// mutation from the analyzer's point of view, because even reads move
// LRU state and I/O counters (and the type documents itself as not
// safe for concurrent use).
const pagerType = "spatialanon/internal/pager.Pager"

// coordinatorOnly marks a function or method whose calls must never be
// reachable from a worker context. Use it for tree wiring and buffer
// plumbing that mutates shared structures without touching the pager
// directly, and for the body of a goroutine that owns a pager.
const coordinatorOnly = "anonylint:coordinator-only"

// pagerconfine machine-checks the coordinator ownership rule of the
// concurrency model (DESIGN.md): the pager is confined to the
// coordinating goroutine. Worker goroutines run pure computations over
// disjoint data; every pager charge and every piece of tree wiring
// happens on the goroutine driving the load, in serial order — that is
// what makes the output AND the Figure 8 I/O counters byte-identical
// for every worker count. A race detector only sees
// the rule broken when a schedule happens to expose it; this rule sees
// it statically.
//
// It flags pager method calls — and calls to functions carrying the
// coordinatorOnly directive — reachable from a worker context: a
// closure passed to (*par.Pool).Fork, par.Do or par.FirstErr, or the
// function of a go statement. Reachability is traced through static
// calls into any loaded package; calls through interfaces and function
// values are outside the analysis and remain a code-review obligation.
func pagerconfine(pass *analysis.Pass) {
	// A chain ends at a call that must stay on the coordinator.
	c := &analysis.Chaser{Pass: pass, Sink: func(call *ast.CallExpr) string {
		if method := pass.Method(call, pagerType); method != "" {
			return "(*pager.Pager)." + method
		}
		if callee := pass.StaticFunc(call.Fun); callee != nil && pass.Directives.Has(callee, coordinatorOnly) {
			return "coordinator-only " + callee.Name()
		}
		return ""
	}}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				// Starting a coordinator-only function starts a
				// coordinating goroutine (a store's single committer),
				// not a worker: what it may touch is its own business.
				if fn := pass.StaticFunc(s.Call.Fun); fn == nil || !pass.Directives.Has(fn, coordinatorOnly) {
					checkWorker(c, s.Call.Fun, "go statement")
				}
			case *ast.CallExpr:
				if arg, ctx := workerArg(pass, s); arg != nil {
					checkWorker(c, arg, ctx)
				}
			}
			return true
		})
	}
}

// workerArg returns the worker function expression of a par fan-out
// call, along with a description of the context, or nil.
func workerArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, string) {
	if pass.Method(call, "spatialanon/internal/par.Pool") == "Fork" && len(call.Args) == 1 {
		return call.Args[0], "par.Pool worker closure"
	}
	for _, name := range []string{"Do", "FirstErr"} {
		if pass.PkgFunc(call, "spatialanon/internal/par", name) && len(call.Args) > 0 {
			return call.Args[len(call.Args)-1], "par." + name + " worker function"
		}
	}
	return nil, ""
}

// checkWorker walks one launch of worker code — an inline closure, or
// a reference to a declared function — and reports every sink
// reachable from it: at the sink's own line when that is in this
// package (prefixed, for a declared function, with its name), at the
// launch when the function belongs to another.
func checkWorker(c *analysis.Chaser, fun ast.Expr, ctx string) {
	report := func(pos token.Pos, chain string) bool {
		c.Pass.Reportf(pos,
			"%s reachable from %s; pager mutations and tree wiring must stay on the coordinating goroutine (coordinator ownership)", chain, ctx)
		return true
	}
	if lit, ok := ast.Unparen(fun).(*ast.FuncLit); ok {
		c.Calls(lit.Body, report)
		return
	}
	fn := c.Pass.StaticFunc(fun)
	if fn == nil {
		return
	}
	if decl := c.Pass.Decl(fn); decl != nil && decl.Body != nil && fn.Pkg() == c.Pass.Pkg.Types {
		c.Calls(decl.Body, func(pos token.Pos, chain string) bool { return report(pos, fn.Name()+" → "+chain) })
	} else if chain := c.Chain(fn); chain != "" {
		report(fun.Pos(), chain)
	}
}
