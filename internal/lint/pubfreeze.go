package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"spatialanon/internal/lint/analysis"
)

// published marks a type whose values escape to concurrent readers via
// atomic.Pointer.Store (or an equivalent release store) and must never
// be written again afterwards. Put it in the type's doc comment.
const published = "anonylint:published"

// prePublish marks constructor-phase code: a function or method that
// writes to a published type but provably runs before the value is
// stored to the epoch pointer, or a single line performing a
// lock-guarded install of a fresh entry (the release-cache pattern).
// The annotation is the reviewable claim; follow it with the
// justification.
const prePublish = "anonylint:pre-publish"

// pubfreeze machine-checks the publication rule: a view published
// through the atomic epoch pointer is immutable from that moment on.
// Snapshot isolation in the serving layer is not a lock — it is the
// absence of writes: readers hold a *View (or a routing *Index, a
// release-cache entry, a record list hanging off one) with no
// synchronization at all, which is only sound because nothing ever
// mutates a published value. The race detector only sees the rule
// broken when a schedule happens to expose a racing reader; this rule
// sees it statically.
//
// It flags writes that reach a type carrying the published directive — in
// whichever package declares it — after construction: field
// assignments, element and map writes, deletes and copy targets whose
// access path passes through a value of such a type. Three shapes are
// recognized as sound and exempt:
//
//   - writes through a local freshly constructed in the same function
//     (&T{}, T{}, new(T)) — the constructor has not published yet;
//   - writes inside a closure passed to (*sync.Once).Do — the
//     sanctioned lazy-memoization pattern (base release, per-k1
//     release cache, accelerator and record entries);
//   - functions or lines annotated prePublish, the
//     reviewable escape for constructor helpers and lock-guarded
//     fresh-entry installs.
//
// A second, transitive pass chases static calls from methods of
// published types into functions marked prePublish:
// constructor-phase code reachable from a post-publish method voids
// the pre-publish claim, and is reported with its call chain. Writes
// through aliases (a field copied into a local first) and calls
// through interfaces or function values are outside the static
// analysis and remain a code-review obligation.
func pubfreeze(pass *analysis.Pass) {
	// The chase ends at a static call of a function marked prePublish.
	chaser := &analysis.Chaser{Pass: pass, Sink: func(call *ast.CallExpr) string {
		if callee := pass.StaticFunc(call.Fun); callee != nil && pass.Directives.Has(callee, prePublish) {
			return "pre-publish " + callee.Name()
		}
		return ""
	}}
	pass.EachFunc(func(fn *types.Func, decl *ast.FuncDecl) {
		if pass.Directives.Has(fn, prePublish) {
			return // constructor-phase by annotation
		}
		checkWrites(pass, decl)
		if decl.Recv == nil {
			return
		}
		if recv := publishedType(pass, pass.Info.TypeOf(decl.Recv.List[0].Type)); recv != nil {
			checkReachesPrePublish(chaser, fn, decl, recv)
		}
	})
}

// publishedType returns t's named type (one pointer dereferenced) when it
// carries the published directive, or nil.
func publishedType(pass *analysis.Pass, t types.Type) *types.Named {
	if named := analysis.Named(t); named != nil && pass.Directives.Has(named.Obj(), published) {
		return named
	}
	return nil
}

// checkWrites reports every write in decl whose access path passes
// through a published type and no exemption applies.
func checkWrites(pass *analysis.Pass, decl *ast.FuncDecl) {
	fresh := freshLocals(pass, decl.Body)
	onceBodies := onceClosureRanges(pass, decl.Body)
	check := func(target ast.Expr, verb string) {
		named, sel := publishedPath(pass, target)
		if named == nil {
			return
		}
		pos := target.Pos()
		if obj := rootObject(pass, target); obj != nil && fresh[obj] {
			return // constructing, not mutating
		}
		for _, r := range onceBodies {
			if r[0] <= pos && pos < r[1] {
				return // sanctioned once-guarded memoization
			}
		}
		if pass.Suppressed(prePublish, pos) {
			return
		}
		pass.Reportf(pos,
			"%s %s of published %s after construction; published views are immutable — move this to the constructor or annotate the proof with %s",
			verb, sel, named.Obj().Name(), prePublish)
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				check(lhs, "write to")
			}
		case *ast.IncDecStmt:
			check(s.X, "write to")
		case *ast.CallExpr:
			switch pass.Builtin(s) {
			case "delete":
				check(s.Args[0], "delete from")
			case "copy":
				check(s.Args[0], "copy into")
			}
		}
		return true
	})
}

// publishedPath walks a write target's access path and returns the
// published named type it passes through (plus a printable name for
// the field or element written), or nil. A bare identifier is a
// rebinding, not a write through the value, and never matches.
func publishedPath(pass *analysis.Pass, expr ast.Expr) (*types.Named, string) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if named := publishedType(pass, pass.Info.TypeOf(e.X)); named != nil {
				return named, "field " + e.Sel.Name
			}
			expr = e.X
		case *ast.IndexExpr:
			if named, name := publishedPath(pass, e.X); named != nil {
				return named, name
			}
			expr = e.X
		case *ast.StarExpr:
			if named := publishedType(pass, pass.Info.TypeOf(e.X)); named != nil {
				return named, "pointee"
			}
			expr = e.X
		default:
			return nil, ""
		}
	}
}

// rootObject returns the object of the innermost identifier of an
// access path (v in v.cache[k1]), for the fresh-local exemption.
func rootObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			return pass.Info.ObjectOf(e)
		default:
			return nil
		}
	}
}

// freshLocals collects local variables assigned from a fresh
// construction of a published type (&T{…}, T{…}, new(T)) anywhere in
// body: writes through them are the constructor filling in its own
// value, which has not been published yet.
func freshLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isFreshConstruction(pass, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := rootObject(pass, id); obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

func isFreshConstruction(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok && publishedType(pass, pass.Info.TypeOf(e.X)) != nil
		}
	case *ast.CompositeLit:
		return publishedType(pass, pass.Info.TypeOf(e)) != nil
	case *ast.CallExpr:
		return pass.Builtin(e) == "new" && publishedType(pass, pass.Info.TypeOf(e)) != nil
	}
	return false
}

// onceClosureRanges returns the position ranges of function literals
// passed to (*sync.Once).Do in body: writes inside them are the
// sanctioned lazy-memoization pattern (the once itself provides the
// happens-before edge readers rely on).
func onceClosureRanges(pass *analysis.Pass, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || pass.Method(call, "sync.Once") != "Do" {
			return true
		}
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
			out = append(out, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
		}
		return true
	})
	return out
}

// checkReachesPrePublish chases static calls from a post-publish
// method of a published type and reports any chain that reaches
// prePublish code: constructor-phase functions must not run
// once readers can hold the value.
func checkReachesPrePublish(chaser *analysis.Chaser, fn *types.Func, decl *ast.FuncDecl, recv *types.Named) {
	pass := chaser.Pass
	chaser.Calls(decl.Body, func(pos token.Pos, chain string) bool {
		if !pass.Suppressed(prePublish, pos) {
			pass.Reportf(pos,
				"%s reachable from (%s).%s, which runs after publication; pre-publish code must stay on the constructor path",
				chain, recv.Obj().Name(), fn.Name())
		}
		return true
	})
}
