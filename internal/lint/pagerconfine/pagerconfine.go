// Package pagerconfine machine-checks PR 2's ownership rule: the pager
// is confined to the coordinating goroutine. Worker goroutines run
// pure computations over disjoint data; every pager charge and every
// piece of tree wiring happens on the goroutine driving the load, in
// serial order — that is what makes the output AND the Figure 8 I/O
// counters byte-identical for every worker count. The compiler cannot
// see this rule; a race detector only sees it when a schedule happens
// to expose it. This analyzer sees it statically.
package pagerconfine

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"spatialanon/internal/lint/analysis"
)

// pagerType is the confined type: every method call on it is a
// mutation from the analyzer's point of view, because even reads move
// LRU state and I/O counters (and the type documents itself as not
// safe for concurrent use).
const pagerType = "spatialanon/internal/pager.Pager"

// Directive marks a function or method as coordinator-only: calls to
// it must never be reachable from a worker context. Use it for tree
// wiring and buffer plumbing that mutates shared structures without
// touching the pager directly.
const Directive = "anonylint:coordinator-only"

// Analyzer flags pager method calls — and calls to functions marked
// anonylint:coordinator-only — reachable from a worker context: a
// closure passed to (*par.Pool).Fork, par.Do or par.FirstErr, or the
// function of a go statement. Reachability is traced through static
// same-package calls; calls through interfaces and function values are
// outside the analysis and remain a code-review obligation (split
// policies and guards are documented as pure).
var Analyzer = &analysis.Analyzer{
	Name: "pagerconfine",
	Doc: "flag pager use reachable from worker goroutines\n\n" +
		"The plan-then-wire concurrency model (DESIGN.md) confines the\n" +
		"pager and all tree wiring to the coordinating goroutine so\n" +
		"that structure and I/O counters are identical for every worker\n" +
		"count. This analyzer walks every par.Pool/par.Do/par.FirstErr\n" +
		"closure and every go statement, chases static same-package\n" +
		"calls, and reports any path that reaches a (*pager.Pager)\n" +
		"method or an anonylint:coordinator-only function.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:        pass,
		decls:       pass.FuncDecls(),
		coordinator: make(map[*types.Func]bool),
	}
	c.chaser = &analysis.Chaser{Pass: pass, Decls: c.decls, Sink: c.sink}
	for fn, decl := range c.decls {
		if analysis.DeclDirective(decl.Doc, Directive) {
			c.coordinator[fn] = true
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				c.checkWorker(workerRootOf(pass, s.Call.Fun), "go statement")
			case *ast.CallExpr:
				if arg, ctx := workerArg(pass, s); arg != nil {
					c.checkWorker(workerRootOf(pass, arg), ctx)
				}
			}
			return true
		})
	}
	return nil
}

// workerArg returns the worker function expression of a par fan-out
// call, along with a description of the context, or nil.
func workerArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, string) {
	if named := pass.ReceiverNamed(call); named != nil {
		if analysis.NamedPath(named) == "spatialanon/internal/par.Pool" {
			if sel := call.Fun.(*ast.SelectorExpr); sel.Sel.Name == "Fork" && len(call.Args) == 1 {
				return call.Args[0], "par.Pool worker closure"
			}
		}
		return nil, ""
	}
	for _, name := range []string{"Do", "FirstErr"} {
		if pass.PkgFunc(call, "spatialanon/internal/par", name) && len(call.Args) > 0 {
			return call.Args[len(call.Args)-1], "par." + name + " worker function"
		}
	}
	return nil, ""
}

// workerRoot is one launch of worker code: either an inline closure
// body or a reference to a same-package function.
type workerRoot struct {
	body *ast.BlockStmt // non-nil for closures
	fn   *types.Func    // non-nil for named functions
}

func workerRootOf(pass *analysis.Pass, fun ast.Expr) workerRoot {
	if lit, ok := ast.Unparen(fun).(*ast.FuncLit); ok {
		return workerRoot{body: lit.Body}
	}
	return workerRoot{fn: pass.StaticFunc(fun)}
}

type checker struct {
	pass        *analysis.Pass
	decls       map[*types.Func]*ast.FuncDecl
	coordinator map[*types.Func]bool
	// chaser traces static same-package calls to a sink.
	chaser *analysis.Chaser
}

// checkWorker walks one worker root and reports every sink reachable
// from it.
func (c *checker) checkWorker(root workerRoot, ctx string) {
	switch {
	case root.body != nil:
		c.walkBody(root.body, ctx, "")
	case root.fn != nil:
		if decl, ok := c.decls[root.fn]; ok && decl.Body != nil {
			c.walkBody(decl.Body, ctx, root.fn.Name()+" → ")
		}
	}
}

// walkBody scans a body that executes in a worker context. prefix is
// the rendered call chain that led here ("" for the closure itself).
func (c *checker) walkBody(body *ast.BlockStmt, ctx, prefix string) {
	c.chaser.Calls(body, func(pos token.Pos, chain string) bool {
		c.pass.Reportf(pos,
			"pagerconfine: %s%s reachable from %s; pager mutations and tree wiring must stay on the coordinating goroutine (plan-then-wire)", prefix, chain, ctx)
		return true
	})
}

// sink classifies a call that must stay on the coordinator, returning
// a description or "".
func (c *checker) sink(call *ast.CallExpr) string {
	if named := c.pass.ReceiverNamed(call); named != nil && analysis.NamedPath(named) == pagerType {
		return fmt.Sprintf("(*pager.Pager).%s", call.Fun.(*ast.SelectorExpr).Sel.Name)
	}
	if callee := c.pass.StaticCallee(call); callee != nil && c.coordinator[callee] {
		return "coordinator-only " + callee.Name()
	}
	return ""
}
