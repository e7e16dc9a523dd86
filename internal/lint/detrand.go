package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spatialanon/internal/lint/analysis"
)

// clockFuncs are the "time" package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// wallClockOK marks a line whose wall-clock read feeds measurement
// only — latency recording, progress reporting — and never a value
// under the byte-equality contract. The justification after the
// marker is the reviewable claim.
const wallClockOK = "anonylint:wall-clock"

// detrand guards the byte-equality determinism contract
// (determinism_test.go): the same input must produce the identical
// output — bit for bit — for every worker count and every run. Three
// sources of silent nondeterminism are banned:
//
//  1. wall-clock reads (time.Now, time.Since, time.Until);
//  2. the process-global math/rand generators, whose streams are not
//     replayable from a caller-owned seed (constructors such as
//     rand.New and rand.NewSource remain allowed — they are how seeded
//     sources are built);
//  3. map iteration whose order can leak into a function's results:
//     a range over a map whose body returns a value derived from the
//     iteration, accumulates floating-point values (float addition is
//     not associative, so the low bits depend on visit order), or
//     appends to a returned slice that is never sorted afterwards.
//
// A range statement may be suppressed with an "anonylint:map-ordered"
// comment on its line when order-independence holds for a reason the
// rule cannot see; the comment is the reviewable claim.
func detrand(pass *analysis.Pass) {
	pass.EachFunc(func(_ *types.Func, fd *ast.FuncDecl) {
		checkClockAndRand(pass, fd.Body)
		checkMapRanges(pass, fd)
	})
}

// checkClockAndRand flags wall-clock and global-rand calls.
func checkClockAndRand(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch {
		case clockFuncs[name] && pass.IsPkgName(sel.X, "time"):
			if pass.Suppressed(wallClockOK, call.Pos()) {
				break
			}
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a deterministic package; thread timings through the caller", name)
		case (pass.IsPkgName(sel.X, "math/rand") || pass.IsPkgName(sel.X, "math/rand/v2")) &&
			!strings.HasPrefix(name, "New"):
			pass.Reportf(call.Pos(),
				"global math/rand function rand.%s is not replayable from a seed; inject a seeded *rand.Rand (detrng.New)", name)
		}
		return true
	})
}

// checkMapRanges flags map iteration whose order can reach the
// enclosing function's results.
func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Objects of named results and of identifiers appearing in return
	// statements: the function's "output variables".
	outputs := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					outputs[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						outputs[obj] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Suppressed("anonylint:map-ordered", rng.Pos()) {
			return true
		}
		rangeVars := rangeVarObjects(pass, rng)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.ReturnStmt:
				if returnUsesLoopState(pass, s, rangeVars) {
					pass.Reportf(s.Pos(),
						"return inside map iteration depends on visit order; iterate sorted keys so the reported value is deterministic")
				}
			case *ast.AssignStmt:
				checkAccumulation(pass, fd, rng, s, outputs)
			}
			return true
		})
		return true
	})
}

// rangeVarObjects returns the objects bound by the range clause.
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// returnUsesLoopState reports whether a return statement's results
// mention a range variable — the signature of an order-dependent
// "first match wins" report. Returns of constants (existence checks)
// are order-independent and pass.
func returnUsesLoopState(pass *analysis.Pass, ret *ast.ReturnStmt, rangeVars map[types.Object]bool) bool {
	for _, res := range ret.Results {
		for obj := range rangeVars {
			if pass.Uses(res, obj) {
				return true
			}
		}
	}
	return false
}

// checkAccumulation flags float op-assignment and unsorted appends to
// output slices inside the map range body.
func checkAccumulation(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt, outputs map[types.Object]bool) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(s.Lhs) == 1 && analysis.IsBasic(pass.Info.TypeOf(s.Lhs[0]), types.IsFloat) {
			pass.Reportf(s.Pos(),
				"floating-point accumulation in map iteration order; float addition is not associative — iterate sorted keys")
		}
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
			if !ok || pass.Builtin(call) != "append" {
				continue
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil || !outputs[obj] {
				continue
			}
			if !sortedAfter(pass, fd, rng, obj) {
				pass.Reportf(s.Pos(),
					"append to returned slice %s in map iteration order with no sort before return; sort it or iterate sorted keys", id.Name)
			}
		}
	}
}

// sortedAfter reports whether, after the range statement, the function
// passes obj to any function of package sort or slices — the idiom
// that restores a deterministic order before the slice escapes.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !(pass.IsPkgName(sel.X, "sort") || pass.IsPkgName(sel.X, "slices")) {
			return true
		}
		for _, arg := range call.Args {
			found = found || pass.Uses(arg, obj)
		}
		return !found
	})
	return found
}
