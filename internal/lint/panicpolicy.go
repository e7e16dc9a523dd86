package lint

import (
	"go/ast"

	"spatialanon/internal/lint/analysis"
)

// fatalFuncs are the "log" package functions that terminate or panic.
var fatalFuncs = map[string]bool{
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// justifyWindow is how many lines above a call an "invariant:" comment
// may sit and still justify it: the line itself plus two above, which
// admits the idiomatic short block comment directly over the call.
const justifyWindow = 2

// panicpolicy enforces the failure-semantics contract (DESIGN.md
// "Failure semantics"): library code returns errors. Faults are
// injectable and data is hostile, and a panic in a library turns a
// recoverable I/O error into a crashed process. panic is admitted only
// for provable programmer errors, and each such site must say so with
// an "invariant:" comment on the call line or within the two lines
// above it, so the claim is reviewable rather than implicit. log.Fatal*
// and log.Panic* are never allowed: they hide an os.Exit behind a log
// line.
func panicpolicy(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var what string
			if pass.Builtin(call) == "panic" {
				what = "panic"
			} else if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fatalFuncs[fun.Sel.Name] && pass.IsPkgName(fun.X, "log") {
				what = "log." + fun.Sel.Name
			}
			if what != "" && !pass.SuppressedWithin("invariant:", call.Pos(), justifyWindow) {
				pass.Reportf(call.Pos(),
					"%s in library code without an invariant: justification comment; return an error, or state the provable programmer error", what)
			}
			return true
		})
	}
}
