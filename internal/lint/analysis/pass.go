// Package analysis is anonylint's engine: it loads a program (Load),
// indexes the anonylint: directives its declarations carry
// (Directives), and runs rules over its packages (Program.Run), giving
// each rule a Pass with the matchers the rules share. The rules
// themselves are the table in the parent package, lint. The standard
// library's go/types is the whole dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule is one static check: a row of lint.Rules.
type Rule struct {
	// Name prefixes every finding ("name: message").
	Name string
	// Doc is a one-line summary; the rule's full statement is the
	// comment on its Run function.
	Doc   string
	Scope Scope
	// Run applies the rule to pass.Pkg, reporting through pass.Reportf.
	Run func(*Pass)
}

// Scope says which packages a rule covers, as data `anonylint -list`
// can print: directories relative to the module root, each standing
// for its whole tree. The zero Scope is every package.
type Scope struct {
	In     []string // covered trees; empty means everywhere
	Except []string // exempt trees inside them
}

// Covers reports whether the package in module-relative directory rel
// is in scope.
func (s Scope) Covers(rel string) bool {
	under := func(trees []string) bool {
		for _, t := range trees {
			if rel == t || strings.HasPrefix(rel, t+"/") {
				return true
			}
		}
		return false
	}
	return (len(s.In) == 0 || under(s.In)) && !under(s.Except)
}

func (s Scope) String() string {
	out := "everywhere"
	if len(s.In) > 0 {
		out = strings.Join(s.In, "/*, ") + "/*"
	}
	if len(s.Except) > 0 {
		out += " except " + strings.Join(s.Except, ", ")
	}
	return out
}

// Finding is one violation of one rule.
type Finding struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Pass carries one package of the program through one rule. The
// program's Fset, Info and Directives cover every loaded package, so
// the matchers below work on syntax from any of them.
type Pass struct {
	*Program
	// Pkg is the package being checked.
	Pkg *Package

	rule  string
	found []Finding
}

// Reportf records a finding at pos; the message is prefixed with the
// rule's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.found = append(p.found, Finding{pos, p.rule, p.rule + ": " + fmt.Sprintf(format, args...)})
}

// EachFunc calls visit for every function and method of the package
// that has a body, in source order.
func (p *Pass) EachFunc(visit func(fn *types.Func, decl *ast.FuncDecl)) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil {
				if fn, ok := p.Info.Defs[decl.Name].(*types.Func); ok {
					visit(fn, decl)
				}
			}
		}
	}
}

// PkgFunc reports whether call is a direct call of the package-level
// function pkgPath.name (for example "time".Now), resolving the
// qualified identifier through the type-checker so import renames are
// handled.
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && p.IsPkgName(sel.X, pkgPath)
}

// IsPkgName reports whether expr is an identifier naming the import of
// pkgPath.
func (p *Pass) IsPkgName(expr ast.Expr, pkgPath string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// Builtin returns the name of the builtin function call invokes
// ("append", "panic", …), or "".
func (p *Pass) Builtin(call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// Uses reports whether an identifier resolving to obj occurs in n.
func (p *Pass) Uses(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// Named returns t's named type, one pointer dereferenced, or nil.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsBasic reports whether t's underlying type is a basic type of one
// of the given kinds (types.IsInteger, types.IsFloat, …).
func IsBasic(t types.Type, kinds types.BasicInfo) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&kinds != 0
}

// Method returns the name of the method call invokes on a receiver
// whose named type (pointer dereferenced) is recv, written
// "pkgpath.TypeName" (for example "sync.Once"), or "".
func (p *Pass) Method(call *ast.CallExpr, recv string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	named := Named(selection.Recv())
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path()+"."+named.Obj().Name() != recv {
		return ""
	}
	return sel.Sel.Name
}

// StaticFunc resolves a function-valued expression (a call's Fun, or a
// function reference passed as an argument) to the function or method
// it statically names — the generic one, for an instantiation — or nil
// for calls through interfaces' dynamic types, function values,
// builtins and conversions.
func (p *Pass) StaticFunc(fun ast.Expr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = p.Info.Uses[fun.Sel] // package-qualified call
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}

// FuncName renders fn for a finding: its bare name inside the package
// being checked, "pkg.Func" or "pkg.Type.Method" outside it.
func (p *Pass) FuncName(fn *types.Func) string {
	if fn.Pkg() == nil || fn.Pkg() == p.Pkg.Types {
		return fn.Name()
	}
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := Named(recv.Type()); named != nil {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// Suppressed reports whether a comment carrying marker sits on pos's
// line: a line directive covers the statement there.
func (p *Program) Suppressed(marker string, pos token.Pos) bool {
	return p.SuppressedWithin(marker, pos, 0)
}

// SuppressedWithin is Suppressed with the marker also accepted on the
// `above` lines before pos's.
func (p *Program) SuppressedWithin(marker string, pos token.Pos, above int) bool {
	file := p.Fset.File(pos)
	key := lineKey{marker, file}
	lines, ok := p.lines[key]
	if !ok {
		lines = DirectiveLines(p.Fset, p.files[file], marker)
		p.lines[key] = lines
	}
	line := p.Fset.Position(pos).Line
	for l := line - above; l <= line; l++ {
		if lines[l] {
			return true
		}
	}
	return false
}
