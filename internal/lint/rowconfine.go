package lint

import (
	"go/ast"
	"go/types"

	"spatialanon/internal/lint/analysis"
)

// The confined field: the slice holding a partition's rows.
const rowPkg, rowType, rowField = "spatialanon/internal/anonmodel", "Partition", "Records"

// rowconfine keeps a partition's row layout private to anonmodel, which
// declares it, and core, whose Tiling lays a release's rows out: other
// packages read a partition through Size, Record(i) and Satisfies, so
// the rows can move into an arena or into pages without touching a
// reader. It flags every selector that reads or writes the field, also
// through an embedding; a composite literal's key is not a selector.
func rowconfine(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isRowField(pass.Info.Selections[sel]) {
				pass.Reportf(sel.Sel.Pos(), "selector .%s of anonmodel.%s; read a partition through Size, Record(i) and Satisfies, and build one with a composite literal", rowField, rowType)
			}
			return true
		})
	}
}

// isRowField reports whether s selects the confined field.
func isRowField(s *types.Selection) bool {
	if s == nil || s.Kind() != types.FieldVal || s.Obj().Pkg().Path() != rowPkg {
		return false
	}
	partition := s.Obj().Pkg().Scope().Lookup(rowType)
	field, _, _ := types.LookupFieldOrMethod(partition.Type(), false, partition.Pkg(), rowField)
	return field == s.Obj()
}
