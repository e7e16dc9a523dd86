package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"spatialanon/internal/lint/analysis"
)

// TestChaserChainsAndCycles pins the chase the analyzers share: chains
// render caller-first, a clean function stays clean, and a recursion
// cycle neither hangs nor hides a sink — whichever member is asked
// first. The walk of a body stops at its first finding, so a function
// on a cycle is never memoized clean on the strength of a caller that
// was still being scanned.
func TestChaserChainsAndCycles(t *testing.T) {
	const src = `package p
func sink()  {}
func clean() { clean() }
func a()     { b() }
func b()     { sink() }
func f()     { sink(); g() }
func g()     { f() }
`
	want := map[string]string{
		"clean": "",
		"a":     "a → b → the sink",
		"f":     "f → the sink",
		"g":     "g → f → the sink",
	}
	for _, order := range [][]string{{"clean", "a", "f", "g"}, {"g", "f", "a", "clean"}} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "p.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatal(err)
		}
		pass := &analysis.Pass{Fset: fset, Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info}
		c := &analysis.Chaser{Pass: pass, Decls: pass.FuncDecls(), Sink: func(call *ast.CallExpr) string {
			if fn := pass.StaticCallee(call); fn != nil && fn.Name() == "sink" {
				return "the sink"
			}
			return ""
		}}
		for _, name := range order {
			fn := pkg.Scope().Lookup(name).(*types.Func)
			if got := c.Chain(fn); got != want[name] {
				t.Errorf("asked in order %v: Chain(%s) = %q, want %q", order, name, got, want[name])
			}
		}
	}
}
