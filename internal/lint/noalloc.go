package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"spatialanon/internal/lint/analysis"
)

// zeroAlloc marks a function or method whose warm path must allocate
// nothing. Every function make zeroalloc pins dynamically carries this
// directive, so the static and dynamic checks cover the same set.
const zeroAlloc = "anonylint:zero-alloc"

// allocOK marks a line whose allocation is deliberate: one-time
// scratch growth on a cold path (the Scratch warm-up pattern), or
// setup outside the pinned warm loop. The justification after the
// marker is the reviewable claim.
const allocOK = "anonylint:alloc-ok"

// noalloc machine-checks the read path's zero-allocation contract:
// functions the serving layer pins at 0 allocs/op with
// testing.AllocsPerRun (make zeroalloc) must not contain
// allocation-inducing operations on any path. The dynamic gate only
// sees the inputs the benchmark happens to drive — a cold branch, a
// fallback path or a helper that starts allocating passes it silently
// until a production workload hits the branch. This rule is the static
// complement.
//
// It flags, in every function carrying the zeroAlloc directive: make and
// new, append outside the x = append(x, …) capacity-reuse form, map
// writes, string↔[]byte and string↔[]rune conversions, interface
// boxing of non-pointer values, function literals, non-empty variadic
// calls, and any fmt call. Same-package callees are chased
// transitively and reported with their call chain; a callee in another
// package of the module must itself carry the directive (its
// body is checked where it is declared); standard-library callees
// other than fmt are trusted (the dynamic make zeroalloc gate is the
// backstop there). Calls through function values and interface methods
// cannot be vetted statically and are flagged. Deliberate cold-path
// allocations carry allocOK with a justification.
func noalloc(pass *analysis.Pass) {
	// The chaser traces same-package helpers: a helper's first
	// unsuppressed allocation-inducing operation ends the chain; line
	// suppressions inside the helper apply.
	c := &analysis.Chaser{Pass: pass}
	c.Scan = func(body *ast.BlockStmt, found func(token.Pos, string) bool) {
		walkNoAlloc(c, body, func(pos token.Pos, desc string) { found(pos, desc) })
	}
	pass.EachFunc(func(fn *types.Func, decl *ast.FuncDecl) {
		if !pass.Directives.Has(fn, zeroAlloc) {
			return
		}
		walkNoAlloc(c, decl.Body, func(pos token.Pos, desc string) {
			pass.Reportf(pos,
				"%s in %s, which is marked %s (justify deliberate cold-path allocations with %s)",
				desc, fn.Name(), zeroAlloc, allocOK)
		})
	})
}

// walkNoAlloc scans one body that must not allocate, invoking report for
// every unsuppressed allocation-inducing operation.
func walkNoAlloc(c *analysis.Chaser, body *ast.BlockStmt, report func(pos token.Pos, desc string)) {
	selfAppends := collectSelfAppends(c.Pass, body)
	emit := func(pos token.Pos, desc string) {
		if !c.Pass.Suppressed(allocOK, pos) {
			report(pos, desc)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			emit(s.Pos(), "function literal (closures allocate)")
			return false
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isMapIndex(c.Pass, lhs) {
					emit(lhs.Pos(), "map write (inserts allocate)")
				}
			}
		case *ast.IncDecStmt:
			if isMapIndex(c.Pass, s.X) {
				emit(s.X.Pos(), "map write (inserts allocate)")
			}
		case *ast.CallExpr:
			checkCall(c, s, selfAppends, emit)
		}
		return true
	})
}

// checkCall classifies one call in a zero-alloc body, reporting at
// most one finding for it.
func checkCall(c *analysis.Chaser, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, emit func(token.Pos, string)) {
	// Conversions: only the string↔byte/rune-slice pairs copy.
	if tv, ok := c.Pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(tv.Type, c.Pass.Info.TypeOf(call.Args[0])) {
			emit(call.Pos(), "string↔slice conversion (copies its operand)")
		}
		return
	}
	// Builtins: make and new always allocate; append is allowed only
	// in the self-append form that reuses the destination's capacity.
	if name := c.Pass.Builtin(call); name != "" {
		switch name {
		case "make", "new":
			emit(call.Pos(), name)
		case "append":
			if !selfAppends[call] {
				emit(call.Pos(), "append outside the x = append(x, …) capacity-reuse form")
			}
		}
		return
	}
	// fmt formats through interfaces and allocates on every call.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && c.Pass.IsPkgName(sel.X, "fmt") {
		emit(call.Pos(), "call to fmt."+sel.Sel.Name)
		return
	}
	callee := c.Pass.StaticFunc(call.Fun)
	// Dynamic dispatch — function values and interface methods —
	// cannot be vetted statically.
	if callee == nil {
		emit(call.Pos(), "call through a function value (cannot be vetted statically)")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := c.Pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			emit(call.Pos(), "interface method call (dynamic dispatch cannot be vetted statically)")
			return
		}
	}
	// Boxing: a non-pointer-shaped value passed where an interface is
	// expected escapes to the heap.
	sig, _ := c.Pass.Info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if sig != nil {
		fixed := sig.Params().Len()
		if sig.Variadic() {
			fixed--
		}
		for i := 0; i < fixed && i < len(call.Args); i++ {
			if !types.IsInterface(sig.Params().At(i).Type()) {
				continue
			}
			at := c.Pass.Info.TypeOf(call.Args[i])
			if at == nil || types.IsInterface(at) || pointerShaped(at) {
				continue
			}
			emit(call.Args[i].Pos(), fmt.Sprintf("interface boxing of %s argument", at))
			return
		}
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			emit(call.Pos(), "non-empty variadic call (argument slice allocates)")
			return
		}
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return // error.Error and friends have no package; dynamic cases handled above
	}
	if pkg == c.Pass.Pkg.Types {
		if chain := c.Chain(callee); chain != "" {
			emit(call.Pos(), chain)
		}
		return
	}
	// Decl is nil outside the module: standard-library calls other than
	// fmt are trusted; the dynamic make zeroalloc gate is the backstop.
	if c.Pass.Decl(callee) != nil && !c.Pass.Directives.Has(callee, zeroAlloc) {
		emit(call.Pos(), "call to "+c.Pass.FuncName(callee)+", not vetted zero-alloc (it does not carry "+zeroAlloc+")")
	}
}

// collectSelfAppends returns the append calls in the sanctioned
// x = append(x, …) form (including x = append(x[:0], …)), whose
// destination reuses x's capacity on the warm path.
func collectSelfAppends(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if pass.Builtin(call) == "append" && sameStorage(pass, as.Lhs[i], call.Args[0]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// sameStorage reports whether dst and src statically name the same
// variable or field (src may reslice it, as in append(x[:0], …)).
func sameStorage(pass *analysis.Pass, dst, src ast.Expr) bool {
	dst, src = ast.Unparen(dst), ast.Unparen(src)
	if se, ok := src.(*ast.SliceExpr); ok {
		return sameStorage(pass, dst, se.X)
	}
	switch d := dst.(type) {
	case *ast.Ident:
		s, ok := src.(*ast.Ident)
		obj := pass.Info.ObjectOf(d)
		return ok && obj != nil && obj == pass.Info.ObjectOf(s)
	case *ast.SelectorExpr:
		s, ok := src.(*ast.SelectorExpr)
		return ok &&
			pass.Info.Uses[d.Sel] != nil &&
			pass.Info.Uses[d.Sel] == pass.Info.Uses[s.Sel] &&
			sameStorage(pass, d.X, s.X)
	}
	return false
}

func isMapIndex(pass *analysis.Pass, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := pass.Info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// allocatingConversion reports whether converting from src to dst
// copies: the string↔[]byte and string↔[]rune pairs.
func allocatingConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	return (analysis.IsBasic(dst, types.IsString) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && analysis.IsBasic(src, types.IsString))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether a value of type t fits the interface
// data word without heap allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
