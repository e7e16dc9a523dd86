package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"spatialanon/internal/lint/analysis"
)

// writeModule lays files (slash-separated path → contents) out as a
// throw-away module named "m" and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module m\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestChaserChainsAndCycles pins the chase the rules share: chains
// render caller-first, a clean function stays clean, a recursion cycle
// neither hangs nor hides a sink — whichever member is asked first —
// and a chain that leaves the package names the foreign function by
// its package. The walk of a body stops at its first finding, so a
// function on a cycle is never memoized clean on the strength of a
// caller that was still being scanned.
func TestChaserChainsAndCycles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/p.go": `package p

import "m/q"

func sink()  {}
func clean() { clean() }
func a()     { b() }
func b()     { sink() }
func f()     { sink(); g() }
func g()     { f() }
func far()   { q.Relay() }
`,
		"q/q.go": `package q

func sink()  {}
func Relay() { sink() }
`,
	})
	want := map[string]string{
		"clean": "",
		"a":     "a → b → the sink",
		"f":     "f → the sink",
		"g":     "g → f → the sink",
		"far":   "far → q.Relay → the sink",
	}
	for _, order := range [][]string{{"clean", "a", "f", "g", "far"}, {"far", "g", "f", "a", "clean"}} {
		prog, err := analysis.Load(root, []string{"./p"})
		if err != nil {
			t.Fatal(err)
		}
		pkg := prog.Roots[0]
		prog.Check(pkg, analysis.Rule{Name: "chase", Run: func(pass *analysis.Pass) {
			c := &analysis.Chaser{Pass: pass, Sink: func(call *ast.CallExpr) string {
				if fn := pass.StaticFunc(call.Fun); fn != nil && fn.Name() == "sink" {
					return "the sink"
				}
				return ""
			}}
			for _, name := range order {
				fn := pkg.Types.Scope().Lookup(name).(*types.Func)
				if got := c.Chain(fn); got != want[name] {
					t.Errorf("asked in order %v: Chain(%s) = %q, want %q", order, name, got, want[name])
				}
			}
		}})
	}
}
