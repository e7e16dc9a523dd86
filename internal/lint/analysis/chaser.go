package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Chaser finds how a function reaches something a rule calls a sink,
// through static calls into whichever loaded package declares the
// callee: the chain is rendered "f → g → <sink description>" (a
// function outside the package being checked as pkg.f) and memoized
// per function. Calls through interfaces and function values, and
// into the standard library, are outside the analysis.
type Chaser struct {
	Pass *Pass
	// Sink describes why a call ends a chain, or returns ""; Calls needs it.
	Sink func(*ast.CallExpr) string
	// Scan, when set, replaces Calls as the walk of a callee's body,
	// for a rule whose findings are not all calls. It reports the
	// body's findings in source order and may stop once found returns
	// false; the first one ends the chain.
	Scan func(body *ast.BlockStmt, found func(pos token.Pos, desc string) bool)

	// chains memoizes Chain; "" is a function proven clean, or one
	// still being scanned (which breaks recursion cycles).
	chains map[*types.Func]string
}

// Calls reports, in source order, every call in body that is a sink or
// statically reaches one, with the chain it starts, until found returns
// false.
func (c *Chaser) Calls(body *ast.BlockStmt, found func(pos token.Pos, chain string) bool) {
	more := true
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && more {
			chain := c.Sink(call)
			if callee := c.Pass.StaticFunc(call.Fun); chain == "" && callee != nil {
				chain = c.Chain(callee)
			}
			if chain != "" {
				more = found(call.Pos(), chain)
			}
		}
		return more
	})
}

// Chain returns the rendered call chain from fn to a sink, or "" when
// fn is proven sink-free.
func (c *Chaser) Chain(fn *types.Func) string {
	if chain, ok := c.chains[fn]; ok {
		return chain // "" while fn is in progress: a cycle, resolved by the outer visit
	}
	if c.chains == nil {
		c.chains = make(map[*types.Func]string)
	}
	c.chains[fn] = ""
	if decl := c.Pass.Decl(fn); decl != nil && decl.Body != nil {
		scan, first := c.Scan, ""
		if scan == nil {
			scan = c.Calls
		}
		scan(decl.Body, func(_ token.Pos, desc string) bool {
			if first == "" {
				first = desc
			}
			return false
		})
		if first != "" {
			c.chains[fn] = c.Pass.FuncName(fn) + " → " + first
		}
	}
	return c.chains[fn]
}
