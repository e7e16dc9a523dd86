// Package pubfreeze machine-checks PR 5's publication rule: a view
// published through the atomic epoch pointer is immutable from that
// moment on. Snapshot isolation in the serving layer is not a lock —
// it is the absence of writes: readers hold a *View (or a routing
// *Index hanging off one) with no synchronization at all, which is
// only sound because nothing ever mutates a published value. The
// compiler cannot see this rule, and the race detector only sees it
// when a schedule happens to expose a racing reader. This analyzer
// sees it statically.
package pubfreeze

import (
	"go/ast"
	"go/token"
	"go/types"

	"spatialanon/internal/lint/analysis"
)

// Directive marks a type as published: values of the type escape to
// concurrent readers via atomic.Pointer.Store (or an equivalent
// release store) and must never be written again afterwards. Put it
// in the type's doc comment.
const Directive = "anonylint:published"

// PrePublish marks constructor-phase code: a function or method that
// writes to a published type but provably runs before the value is
// stored to the epoch pointer, or a single line performing a
// lock-guarded install of a fresh entry (the release-cache pattern).
// The annotation is the reviewable claim; follow it with the
// justification.
const PrePublish = "anonylint:pre-publish"

// SeedTypes are the serving-layer types known to be published even
// when the analyzed package cannot see their doc comments (imported
// types carry no AST). In-package analysis picks the same types up
// from their anonylint:published directives; the seed list keeps
// cross-package writes honest.
var SeedTypes = map[string]bool{
	"spatialanon/internal/serve.View":       true,
	"spatialanon/internal/serve.accelEntry": true,
	"spatialanon/internal/verify.Family":    true,
	"spatialanon/internal/routing.Index":    true,
}

// Analyzer flags writes that reach a published type after
// construction: field assignments, element and map writes, deletes
// and copy targets whose access path passes through a value of a
// published type. Three shapes are recognized as sound and exempt:
//
//   - writes through a local freshly constructed in the same function
//     (&T{}, T{}, new(T)) — the constructor has not published yet;
//   - writes inside a closure passed to (*sync.Once).Do — the
//     sanctioned lazy-memoization pattern (base release, per-k1
//     release cache, accelerator and record entries);
//   - functions or lines annotated anonylint:pre-publish, the
//     reviewable escape for constructor helpers and lock-guarded
//     fresh-entry installs.
//
// A second, pagerconfine-style transitive pass chases static
// same-package calls from methods of published types into functions
// marked anonylint:pre-publish: constructor-phase code reachable from
// a post-publish method voids the pre-publish claim, and is reported
// with its call chain. Writes through aliases (a field copied into a
// local first) and calls through interfaces or function values are
// outside the static analysis and remain a code-review obligation.
var Analyzer = &analysis.Analyzer{
	Name: "pubfreeze",
	Doc: "flag writes to published view types after construction\n\n" +
		"Snapshot isolation (DESIGN.md) rests on the convention that a\n" +
		"View stored to the atomic epoch pointer — and everything\n" +
		"hanging off it: release-cache entries, routing accelerators,\n" +
		"record lists — is never written again. This analyzer flags\n" +
		"every write whose access path passes through a published type\n" +
		"(directive anonylint:published), excepting fresh locals,\n" +
		"sync.Once.Do bodies and anonylint:pre-publish annotations, and\n" +
		"chases calls from post-publish methods into pre-publish code.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		decls:     pass.FuncDecls(),
		published: make(map[*types.TypeName]bool),
		prePub:    make(map[*types.Func]bool),
		suppress:  pass.CommentLines(PrePublish),
	}
	c.chaser = &analysis.Chaser{Pass: pass, Decls: c.decls, Sink: c.prePublishCall}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if analysis.DeclDirective(ts.Doc, Directive) || analysis.DeclDirective(gd.Doc, Directive) {
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						c.published[tn] = true
					}
				}
			}
		}
	}
	for fn, decl := range c.decls {
		if analysis.DeclDirective(decl.Doc, PrePublish) {
			c.prePub[fn] = true
		}
	}
	for fn, decl := range c.decls {
		if c.prePub[fn] {
			continue // constructor-phase by annotation
		}
		c.checkWrites(decl)
		if named := receiverNamed(pass, decl); named != nil && c.publishedNamed(named) {
			c.checkReachesPrePublish(fn, decl, named)
		}
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	decls     map[*types.Func]*ast.FuncDecl
	published map[*types.TypeName]bool
	prePub    map[*types.Func]bool
	// chaser traces static same-package calls to pre-publish code.
	chaser   *analysis.Chaser
	suppress map[*ast.File]map[int]bool
}

// publishedNamed reports whether a named type is published, by seed
// list or by in-package directive.
func (c *checker) publishedNamed(n *types.Named) bool {
	return SeedTypes[analysis.NamedPath(n)] || c.published[n.Obj()]
}

// publishedType reports whether t (pointers dereferenced) is a
// published named type.
func (c *checker) publishedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && c.publishedNamed(named)
}

// receiverNamed returns the declared receiver's named type (pointers
// dereferenced), or nil for plain functions.
func receiverNamed(pass *analysis.Pass, decl *ast.FuncDecl) *types.Named {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(decl.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkWrites reports every write in decl whose access path passes
// through a published type and no exemption applies.
func (c *checker) checkWrites(decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	fresh := c.freshLocals(decl.Body)
	onceBodies := onceClosureRanges(c.pass, decl.Body)
	check := func(target ast.Expr, verb string) {
		named, sel := c.publishedPath(target)
		if named == nil {
			return
		}
		pos := target.Pos()
		if obj := c.rootObject(target); obj != nil && fresh[obj] {
			return // constructing, not mutating
		}
		for _, r := range onceBodies {
			if r[0] <= pos && pos < r[1] {
				return // sanctioned once-guarded memoization
			}
		}
		if c.pass.Suppressed(c.suppress, pos) {
			return
		}
		c.pass.Reportf(pos,
			"pubfreeze: %s %s of published %s after construction; published views are immutable — move this to the constructor or annotate the proof with %s",
			verb, sel, named.Obj().Name(), PrePublish)
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
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && len(s.Args) > 0 {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "delete":
						check(s.Args[0], "delete from")
					case "copy":
						check(s.Args[0], "copy into")
					}
				}
			}
		}
		return true
	})
}

// publishedPath walks a write target's access path and returns the
// published named type it passes through (plus a printable name for
// the field or element written), or nil. A bare identifier is a
// rebinding, not a write through the value, and never matches.
func (c *checker) publishedPath(expr ast.Expr) (*types.Named, string) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if t := c.pass.TypesInfo.TypeOf(e.X); t != nil {
				u := t
				if ptr, ok := u.(*types.Pointer); ok {
					u = ptr.Elem()
				}
				if named, ok := u.(*types.Named); ok && c.publishedNamed(named) {
					return named, "field " + e.Sel.Name
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			if named, name := c.publishedPath(e.X); named != nil {
				return named, name
			}
			expr = e.X
		case *ast.StarExpr:
			if t := c.pass.TypesInfo.TypeOf(e.X); c.publishedType(t) {
				return derefNamed(c.pass.TypesInfo.TypeOf(e.X)), "pointee"
			}
			expr = e.X
		default:
			return nil, ""
		}
	}
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// rootObject returns the object of the innermost identifier of an
// access path (v in v.cache[k1]), for the fresh-local exemption.
func (c *checker) rootObject(expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			return c.pass.TypesInfo.ObjectOf(e)
		default:
			return nil
		}
	}
}

// freshLocals collects local variables assigned from a fresh
// construction of a published type (&T{…}, T{…}, new(T)) anywhere in
// body: writes through them are the constructor filling in its own
// value, which has not been published yet.
func (c *checker) freshLocals(body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !c.isFreshConstruction(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := c.rootObject(id); obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

func (c *checker) isFreshConstruction(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok && c.publishedType(c.pass.TypesInfo.TypeOf(e.X))
		}
	case *ast.CompositeLit:
		return c.publishedType(c.pass.TypesInfo.TypeOf(e))
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return c.publishedType(c.pass.TypesInfo.TypeOf(e))
			}
		}
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
		if !ok || len(call.Args) != 1 {
			return true
		}
		named := pass.ReceiverNamed(call)
		if named == nil || analysis.NamedPath(named) != "sync.Once" {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Do" {
			return true
		}
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
			out = append(out, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
		}
		return true
	})
	return out
}

// checkReachesPrePublish chases static same-package calls from a
// post-publish method of a published type and reports any chain that
// reaches anonylint:pre-publish code: constructor-phase functions must
// not run once readers can hold the value.
func (c *checker) checkReachesPrePublish(fn *types.Func, decl *ast.FuncDecl, recv *types.Named) {
	if decl.Body == nil {
		return
	}
	c.chaser.Calls(decl.Body, func(pos token.Pos, chain string) bool {
		if !c.pass.Suppressed(c.suppress, pos) {
			c.pass.Reportf(pos,
				"pubfreeze: %s reachable from (%s).%s, which runs after publication; pre-publish code must stay on the constructor path",
				chain, recv.Obj().Name(), fn.Name())
		}
		return true
	})
}

// prePublishCall is the chaser's sink: a static call of a function
// marked anonylint:pre-publish.
func (c *checker) prePublishCall(call *ast.CallExpr) string {
	if callee := c.pass.StaticCallee(call); callee != nil && c.prePub[callee] {
		return "pre-publish " + callee.Name()
	}
	return ""
}
