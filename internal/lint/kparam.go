package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"spatialanon/internal/lint/analysis"
)

// kValidated marks a struct type or function whose k is validated
// elsewhere; the text after the marker names where.
const kValidated = "anonylint:k-validated"

// kparam enforces the domain's most basic precondition: an anonymity
// parameter below 2 is not anonymity. k = 1 puts every record in its
// own equivalence class — the "anonymized" release is the original
// table — and nothing in the type system stops a caller from asking
// for it. Every place a k enters the system must therefore have a
// validation path that rejects k < 2; this rule proves the validation
// exists rather than trusting every caller to remember.
//
// Two trigger shapes:
//
//  1. A struct type declaring an integer field named K or BaseK that
//     the package reads (a write-only field is a descriptive output —
//     experiment result rows record the k they ran under — and cannot
//     direct anonymization). The declaring package must either give
//     the struct a *Validate* method or compare that field against
//     the literal 2 somewhere in non-test code. Structs whose field
//     merely echoes an already-validated parameter (result rows that
//     are read back when rendering tables) may carry the kValidated
//     directive on the type declaration, naming where the real check
//     happens.
//
//  2. A function with an integer parameter named k that feeds it into
//     a composite literal's K/BaseK field (constructing a constraint
//     or config). The function body must compare k against the
//     literal 2, unless its doc comment carries the kValidated
//     directive naming where the check happens.
func kparam(pass *analysis.Pass) {
	checkStructs(pass)
	checkFuncs(pass)
}

// kFieldNames are the field spellings treated as anonymity parameters.
var kFieldNames = map[string]bool{"K": true, "BaseK": true}

// checkStructs applies trigger shape 1.
func checkStructs(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				owner := pass.Info.Defs[ts.Name]
				if !ok || pass.Directives.Has(owner, kValidated) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if kFieldNames[name.Name] && analysis.IsBasic(pass.Info.TypeOf(field.Type), types.IsInteger) {
							checkField(pass, owner, pass.Info.Defs[name])
						}
					}
				}
			}
		}
	}
}

// checkField reports field, an anonymity parameter of the struct type
// owner, when the package reads it yet neither gives owner a method
// whose name contains "validate" nor compares the field against 2
// anywhere.
func checkField(pass *analysis.Pass, owner, field types.Object) {
	selects := func(expr ast.Expr) bool {
		sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
		return ok && v.Origin() == field
	}
	if !fieldIsRead(pass, selects) {
		return
	}
	if named, ok := owner.Type().(*types.Named); ok {
		for i := 0; i < named.NumMethods(); i++ {
			if strings.Contains(strings.ToLower(named.Method(i).Name()), "validate") {
				return
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		if comparedToTwo(pass, f, selects) {
			return
		}
	}
	pass.Reportf(field.Pos(),
		"struct %s carries anonymity parameter %s but the package has no validation path rejecting %s < 2 (add a Validate method, an explicit comparison, or mark the type anonylint:k-validated)",
		owner.Name(), field.Name(), field.Name())
}

// fieldIsRead reports whether the package reads the field anywhere: a
// selector of it that is not purely the target of a plain assignment.
// Op-assignments read before writing and count as reads.
func fieldIsRead(pass *analysis.Pass, selects func(ast.Expr) bool) bool {
	writes := make(map[*ast.SelectorExpr]bool)
	read := false
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, lhs := range as.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !writes[sel] && selects(sel) {
				read = true
			}
			return !read
		})
	}
	return read
}

// comparedToTwo reports whether root holds a comparison of an
// expression matching operand against the constant 2.
func comparedToTwo(pass *analysis.Pass, root ast.Node, operand func(ast.Expr) bool) bool {
	isTwo := func(expr ast.Expr) bool {
		tv, ok := pass.Info.Types[ast.Unparen(expr)]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return false
		}
		v, ok := constant.Int64Val(tv.Value)
		return ok && v == 2
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				found = found || (operand(be.X) && isTwo(be.Y)) || (operand(be.Y) && isTwo(be.X))
			}
		}
		return !found
	})
	return found
}

// checkFuncs applies trigger shape 2.
func checkFuncs(pass *analysis.Pass) {
	pass.EachFunc(func(fn *types.Func, fd *ast.FuncDecl) {
		if pass.Directives.Has(fn, kValidated) {
			return
		}
		for _, param := range fd.Type.Params.List {
			if !analysis.IsBasic(pass.Info.TypeOf(param.Type), types.IsInteger) {
				continue
			}
			for _, name := range param.Names {
				if name.Name != "k" && name.Name != "K" {
					continue
				}
				obj := pass.Info.Defs[name]
				if obj == nil || !feedsKField(pass, fd.Body, obj) {
					continue
				}
				isParam := func(expr ast.Expr) bool {
					id, ok := ast.Unparen(expr).(*ast.Ident)
					return ok && pass.Info.Uses[id] == obj
				}
				if !comparedToTwo(pass, fd.Body, isParam) {
					pass.Reportf(name.Pos(),
						"parameter %s flows into an anonymity field but %s is never compared against 2 in this function; reject %s < 2 or mark the decl anonylint:k-validated",
						name.Name, name.Name, name.Name)
				}
			}
		}
	})
}

// feedsKField reports whether obj is used as the value of a K/BaseK
// field in any composite literal within body.
func feedsKField(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !kFieldNames[key.Name] {
			return true
		}
		found = pass.Uses(kv.Value, obj)
		return !found
	})
	return found
}
