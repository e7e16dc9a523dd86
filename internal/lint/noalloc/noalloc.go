// Package noalloc machine-checks the read path's zero-allocation
// contract: functions the serving layer pins at 0 allocs/op with
// testing.AllocsPerRun (make zeroalloc) must not contain
// allocation-inducing operations on any path. The dynamic gate only
// sees the inputs the benchmark happens to drive — a cold branch, a
// fallback path or a helper that starts allocating passes it silently
// until a production workload hits the branch. This analyzer is the
// static complement: it walks every marked function, flags every
// allocation-inducing operation, and chases same-package helpers
// transitively so a regression is caught at every zero-alloc caller.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spatialanon/internal/lint/analysis"
)

// Directive marks a function or method as zero-alloc: its warm path
// must allocate nothing. Every function make zeroalloc pins
// dynamically carries this directive, so the static and dynamic
// checks cover the same set.
const Directive = "anonylint:zero-alloc"

// AllocOK marks a line whose allocation is deliberate: one-time
// scratch growth on a cold path (the Scratch warm-up pattern), or
// setup outside the pinned warm loop. The justification after the
// marker is the reviewable claim.
const AllocOK = "anonylint:alloc-ok"

// KnownZeroAlloc lists the cross-package functions zero-alloc code may
// call: each is itself marked anonylint:zero-alloc in its home package
// (where this analyzer checks its body), so the registry is the
// cross-package edge of the same closed set. A call to any other
// project function from a zero-alloc body is flagged as unvetted.
var KnownZeroAlloc = map[string]bool{
	"spatialanon/internal/sfc.Quantizer.Key":        true,
	"spatialanon/internal/sfc.Quantizer.KeyInto":    true,
	"spatialanon/internal/sfc.Quantizer.AppendCell": true,
	"spatialanon/internal/sfc.ZOrderKey":            true,
	"spatialanon/internal/routing.Index.PointCount": true,
	"spatialanon/internal/routing.Index.RangeCount": true,
	"spatialanon/internal/routing.Index.Estimate":   true,
	"spatialanon/internal/attr.Box.Contains":        true,
	"spatialanon/internal/attr.Box.Intersects":      true,
	"spatialanon/internal/attr.Box.IsEmpty":         true,
	"spatialanon/internal/attr.Interval.Width":      true,
	"spatialanon/internal/anonmodel.Partition.Size": true,
}

// Analyzer flags allocation-inducing operations reachable from
// functions marked anonylint:zero-alloc: make and new, append outside
// the x = append(x, …) capacity-reuse form, map writes, string↔[]byte
// and string↔[]rune conversions, interface boxing of non-pointer
// values, function literals, non-empty variadic calls, and any fmt
// call. Same-package callees are chased transitively and reported
// with their call chain; cross-package project callees must appear in
// KnownZeroAlloc; standard-library callees other than fmt are trusted
// (the dynamic make zeroalloc gate is the backstop there). Calls
// through function values and interface methods cannot be vetted
// statically and are flagged. Deliberate cold-path allocations carry
// anonylint:alloc-ok with a justification.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "flag allocation-inducing ops in anonylint:zero-alloc functions\n\n" +
		"The serving read path (DESIGN.md) promises 0 allocs/op on warm\n" +
		"sessions; make zeroalloc pins it dynamically for the inputs the\n" +
		"benchmarks drive. This analyzer pins it statically for every\n" +
		"path: allocation-inducing operations in a marked function — or\n" +
		"in any same-package helper it reaches — are flagged with their\n" +
		"call chain, and cross-package calls must be on the vetted\n" +
		"KnownZeroAlloc list.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		decls:    pass.FuncDecls(),
		suppress: pass.CommentLines(AllocOK),
	}
	// A helper's first unsuppressed allocation-inducing operation ends
	// the chain; line suppressions inside the helper apply.
	c.chaser = &analysis.Chaser{Pass: pass, Decls: c.decls, Scan: func(body *ast.BlockStmt, found func(token.Pos, string) bool) {
		c.walkBody(body, func(pos token.Pos, desc string) { found(pos, desc) })
	}}
	for fn, decl := range c.decls {
		if !analysis.DeclDirective(decl.Doc, Directive) || decl.Body == nil {
			continue
		}
		c.walkBody(decl.Body, func(pos token.Pos, desc string) {
			c.pass.Reportf(pos,
				"noalloc: %s in %s, which is marked %s (justify deliberate cold-path allocations with %s)",
				desc, fn.Name(), Directive, AllocOK)
		})
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	// chaser traces same-package helpers to their first
	// allocation-inducing operation.
	chaser   *analysis.Chaser
	suppress map[*ast.File]map[int]bool
}

// walkBody scans one body that must not allocate, invoking report for
// every unsuppressed allocation-inducing operation.
func (c *checker) walkBody(body *ast.BlockStmt, report func(pos token.Pos, desc string)) {
	selfAppends := c.collectSelfAppends(body)
	emit := func(pos token.Pos, desc string) {
		if !c.pass.Suppressed(c.suppress, pos) {
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
				if c.isMapIndex(lhs) {
					emit(lhs.Pos(), "map write (inserts allocate)")
				}
			}
		case *ast.IncDecStmt:
			if c.isMapIndex(s.X) {
				emit(s.X.Pos(), "map write (inserts allocate)")
			}
		case *ast.CallExpr:
			c.checkCall(s, selfAppends, emit)
		}
		return true
	})
}

// checkCall classifies one call in a zero-alloc body, reporting at
// most one finding for it.
func (c *checker) checkCall(call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, emit func(token.Pos, string)) {
	// Conversions: only the string↔byte/rune-slice pairs copy.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(tv.Type, c.typeOf(call.Args[0])) {
			emit(call.Pos(), "string↔slice conversion (copies its operand)")
		}
		return
	}
	// Builtins: make and new always allocate; append is allowed only
	// in the self-append form that reuses the destination's capacity.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				emit(call.Pos(), "make")
			case "new":
				emit(call.Pos(), "new")
			case "append":
				if !selfAppends[call] {
					emit(call.Pos(), "append outside the x = append(x, …) capacity-reuse form")
				}
			}
			return
		}
	}
	// fmt formats through interfaces and allocates on every call.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && c.pass.IsPkgName(sel.X, "fmt") {
		emit(call.Pos(), "call to fmt."+sel.Sel.Name)
		return
	}
	callee := c.pass.StaticCallee(call)
	// Dynamic dispatch — function values and interface methods —
	// cannot be vetted statically.
	if callee == nil {
		emit(call.Pos(), "call through a function value (cannot be vetted statically)")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			emit(call.Pos(), "interface method call (dynamic dispatch cannot be vetted statically)")
			return
		}
	}
	// Boxing: a non-pointer-shaped value passed where an interface is
	// expected escapes to the heap.
	sig, _ := c.typeOf(call.Fun).Underlying().(*types.Signature)
	if sig != nil {
		fixed := sig.Params().Len()
		if sig.Variadic() {
			fixed--
		}
		for i := 0; i < fixed && i < len(call.Args); i++ {
			if !types.IsInterface(sig.Params().At(i).Type()) {
				continue
			}
			at := c.typeOf(call.Args[i])
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
	if pkg == c.pass.Pkg {
		if chain := c.chaser.Chain(callee); chain != "" {
			emit(call.Pos(), chain)
		}
		return
	}
	if strings.HasPrefix(pkg.Path(), "spatialanon/") && !KnownZeroAlloc[funcKey(callee)] {
		emit(call.Pos(), "call to "+displayName(callee)+", not vetted zero-alloc (noalloc.KnownZeroAlloc)")
	}
	// Standard-library calls other than fmt are trusted; the dynamic
	// make zeroalloc gate is the backstop.
}

// collectSelfAppends returns the append calls in the sanctioned
// x = append(x, …) form (including x = append(x[:0], …)), whose
// destination reuses x's capacity on the warm path.
func (c *checker) collectSelfAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
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
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if c.sameStorage(as.Lhs[i], call.Args[0]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// sameStorage reports whether dst and src statically name the same
// variable or field (src may reslice it, as in append(x[:0], …)).
func (c *checker) sameStorage(dst, src ast.Expr) bool {
	dst, src = ast.Unparen(dst), ast.Unparen(src)
	if se, ok := src.(*ast.SliceExpr); ok {
		return c.sameStorage(dst, se.X)
	}
	switch d := dst.(type) {
	case *ast.Ident:
		s, ok := src.(*ast.Ident)
		obj := c.pass.TypesInfo.ObjectOf(d)
		return ok && obj != nil && obj == c.pass.TypesInfo.ObjectOf(s)
	case *ast.SelectorExpr:
		s, ok := src.(*ast.SelectorExpr)
		return ok &&
			c.pass.TypesInfo.Uses[d.Sel] != nil &&
			c.pass.TypesInfo.Uses[d.Sel] == c.pass.TypesInfo.Uses[s.Sel] &&
			c.sameStorage(d.X, s.X)
	}
	return false
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	return c.pass.TypesInfo.TypeOf(e)
}

func (c *checker) isMapIndex(e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := c.typeOf(ix.X)
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
	return (isString(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
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

// funcKey is the registry key of a function: pkgpath.Func, or
// pkgpath.Type.Method with the pointer stripped.
func funcKey(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return analysis.NamedPath(named) + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// displayName is funcKey without the module-internal prefix, for
// readable diagnostics.
func displayName(fn *types.Func) string {
	return strings.TrimPrefix(funcKey(fn), "spatialanon/internal/")
}
