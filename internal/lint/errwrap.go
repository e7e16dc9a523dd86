package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"spatialanon/internal/lint/analysis"
)

// errExempt marks a line whose sentinel handling is deliberately outside
// the taxonomy rules — for example an identity check against a
// sentinel that is never wrapped by construction. Follow the marker
// with the justification.
const errExempt = "anonylint:err-exempt"

// errwrap machine-checks the error-taxonomy discipline of the
// wal/serve/pager stack: graceful degradation branches on wrapped
// sentinels (wal.ErrPoisoned, serve.ErrDegraded, …) and on error
// kinds recovered through the %w chain (errors.As, retry.IsTransient),
// so one ==-comparison or one %v that flattens a chain silently turns
// a typed rejection into an unmatchable string. It enforces the three
// wrapping rules the taxonomy rests on:
//
//  1. sentinel comparisons use errors.Is — an ==/!= against a
//     package-level `Err*` error variable misses every wrapped layer;
//  2. fmt.Errorf formats chained errors with %w — %v/%s/%q flatten
//     the chain, so errors.Is, errors.As and IsTransient stop matching;
//  3. a foreign package's sentinel is not returned bare — returning
//     wal.ErrPoisoned (or os.ErrNotExist) unwrapped across the
//     package boundary discards the local context the caller needs,
//     so it must travel inside fmt.Errorf("…: %w", …).
//
// Sentinels are recognized by the standard naming convention
// (package-level error variables named Err…); io.EOF is outside it by
// name, preserving the io.Reader contract of returning EOF untouched.
// Deliberate exceptions carry anonylint:err-exempt.
func errwrap(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.BinaryExpr:
				checkComparison(pass, s)
			case *ast.CallExpr:
				checkErrorf(pass, s)
			case *ast.ReturnStmt:
				checkReturn(pass, s)
			}
			return true
		})
	}
}

// checkComparison flags ==/!= against a sentinel: wrapped layers make
// identity comparison silently false.
func checkComparison(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, operand := range []ast.Expr{be.X, be.Y} {
		if v := sentinel(pass, operand); v != nil && !pass.Suppressed(errExempt, be.Pos()) {
			pass.Reportf(be.Pos(),
				"%s compared with %s; wrapped errors never match identity — use errors.Is(err, %s)",
				v.Name(), be.Op, v.Name())
			return
		}
	}
}

// checkErrorf flags fmt.Errorf verbs that format an error argument
// with %v, %s or %q: the chain flattens to a string and errors.Is
// stops matching.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if !pass.PkgFunc(call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	verbs, ok := parseVerbs(format)
	if !ok {
		return // indexed arguments: out of scope
	}
	args := call.Args[1:]
	for _, v := range verbs {
		if v.arg >= len(args) {
			return // vet territory: argument count mismatch
		}
		if v.verb != 'v' && v.verb != 's' && v.verb != 'q' {
			continue
		}
		arg := args[v.arg]
		if !isError(pass, arg) || pass.Suppressed(errExempt, arg.Pos()) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"%%%c flattens this error to a string; use %%w so errors.Is and the wal/serve kind checks still see the chain",
			v.verb)
	}
}

// checkReturn flags a foreign package's sentinel returned bare: the
// boundary crossing is where local context must be added with %w.
func checkReturn(pass *analysis.Pass, ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		sel, ok := ast.Unparen(res).(*ast.SelectorExpr)
		if !ok || !isForeignPkgSelector(pass, sel) {
			continue
		}
		v := sentinel(pass, res)
		if v == nil || pass.Suppressed(errExempt, res.Pos()) {
			continue
		}
		pass.Reportf(res.Pos(),
			"%s.%s returned bare across the package boundary; wrap it with local context: fmt.Errorf(\"…: %%w\", %s.%s)",
			v.Pkg().Name(), v.Name(), v.Pkg().Name(), v.Name())
	}
}

// sentinel resolves expr to a package-level error variable following
// the Err* naming convention, or nil. io.EOF and other legacy names
// fall outside the convention and are never matched.
func sentinel(pass *analysis.Pass, expr ast.Expr) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !implementsError(v.Type()) {
		return nil
	}
	return v
}

// isForeignPkgSelector reports whether sel is pkg.Name for an
// imported package (not a field or method selection).
func isForeignPkgSelector(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.Info.Uses[id].(*types.PkgName)
	return isPkg
}

func isError(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.Info.TypeOf(expr)
	return t != nil && implementsError(t)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// verb is one conversion in a format string: its verb character and
// the index of the argument it consumes.
type verb struct {
	verb byte
	arg  int
}

// parseVerbs extracts the conversions of a fmt format string, mapping
// each to its argument index ('*' width/precision stars consume an
// argument each). It reports ok=false on explicit argument indexes
// ("%[1]v"), which this analyzer does not model.
func parseVerbs(format string) ([]verb, bool) {
	var out []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags, width, precision; '*' consumes an argument.
		for i < len(format) {
			ch := format[i]
			if ch == '[' {
				return nil, false
			}
			if ch == '*' {
				arg++
				i++
				continue
			}
			if strings.IndexByte("+-# 0.", ch) >= 0 || (ch >= '0' && ch <= '9') {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		out = append(out, verb{verb: format[i], arg: arg})
		arg++
	}
	return out, true
}
