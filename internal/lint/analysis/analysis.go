// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: the Analyzer / Pass / Diagnostic
// vocabulary the project's static checkers are written against.
//
// The real x/tools module is deliberately not a dependency — this
// repository builds with the standard library alone — so the subset
// needed by the anonylint suite is reimplemented here with the same
// shape. If the project ever grows a vendored x/tools, the analyzers
// in the sibling packages port mechanically: an Analyzer declares a
// name, a doc string and a Run function over a type-checked package,
// and Run reports findings through the Pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. By
	// convention it is a single lower-case word.
	Name string
	// Doc is the analyzer's documentation: first line summary, then the
	// precise rule, its exceptions and the invariant it protects.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Reportf. The returned error is an analyzer malfunction
	// (could not complete), not a finding.
	Run func(*Pass) error
}

// Pass carries one analyzed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's results for Files.
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far, sorted by position
// so output order is independent of AST walk order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(p.diagnostics))
	copy(out, p.diagnostics)
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Run applies analyzer a to the package described by (fset, files, pkg,
// info) and returns its sorted findings.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.Diagnostics(), nil
}

// ---- shared AST/type helpers used by the concrete analyzers ----

// PkgFunc reports whether call is a direct call of the package-level
// function pkgPath.name (for example "time".Now), resolving the
// qualified identifier through the type-checker so import renames are
// handled.
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return p.IsPkgName(sel.X, pkgPath)
}

// IsPkgName reports whether expr is an identifier naming the import of
// pkgPath.
func (p *Pass) IsPkgName(expr ast.Expr, pkgPath string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// ReceiverNamed returns the *types.Named of a method call's receiver
// type (pointers dereferenced), or nil when call is not a method call
// on a named type.
func (p *Pass) ReceiverNamed(call *ast.CallExpr) *types.Named {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := p.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedPath returns "pkgpath.TypeName" for a named type.
func NamedPath(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FuncDecls maps each package-level function and method object to its
// declaration, letting analyzers chase static same-package calls.
func (p *Pass) FuncDecls() map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// StaticCallee resolves a call expression to the package-level function
// or method object it statically invokes, or nil for calls through
// interfaces, function values, builtins and conversions.
func (p *Pass) StaticCallee(call *ast.CallExpr) *types.Func {
	return p.StaticFunc(call.Fun)
}

// StaticFunc resolves a function-valued expression (a call's Fun, or a
// function reference passed as an argument) to the function or method
// object it statically names, or nil.
func (p *Pass) StaticFunc(fun ast.Expr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = p.TypesInfo.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CommentLines returns, per file, the set of lines on which a comment
// containing marker appears (any line spanned by the comment group).
// Analyzers use it to honor justification markers such as
// "invariant:". The scanning itself lives in directive.go
// (DirectiveLines), shared by every analyzer and table-tested on its
// own.
func (p *Pass) CommentLines(marker string) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range p.Files {
		out[f] = DirectiveLines(p.Fset, f, marker)
	}
	return out
}

// Suppressed reports whether pos sits on one of lines, a CommentLines
// result: a line-directive comment covers the statement there.
func (p *Pass) Suppressed(lines map[*ast.File]map[int]bool, pos token.Pos) bool {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return lines[f][p.Fset.Position(pos).Line]
		}
	}
	return false
}
