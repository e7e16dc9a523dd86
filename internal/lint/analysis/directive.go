// Directive scanning shared by every rule.
//
// Rules take reviewable claims from source comments in two shapes:
//
//   - line directives, which suppress or qualify the statement on the
//     lines a comment group spans ("anonylint:map-ordered",
//     "anonylint:pre-publish", "anonylint:alloc-ok", "invariant: ...");
//   - declaration directives, which mark a whole function, method or
//     type ("anonylint:coordinator-only", "anonylint:zero-alloc",
//     "anonylint:published", "anonylint:k-validated").
//
// Both must be matched against the RAW comment text: Go's
// ast.CommentGroup.Text helpfully strips "//word:rest" directive-style
// lines, which is exactly the form every anonylint marker takes. The
// edge cases (wrong line, trailing justification text, duplicate
// markers, markers inside fixture sources) are pinned by table tests.
package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveLines returns the set of source lines of f on which a
// comment containing marker appears. Every line spanned by a matching
// comment group is included — a block comment directly above a
// statement covers both its own lines and nothing else, so a directive
// on the wrong line does not suppress its neighbor. Trailing text
// after the marker ("anonylint:map-ordered — keys are sorted below")
// is allowed and encouraged: the justification is the reviewable part.
// Duplicate markers on one line are idempotent.
func DirectiveLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		if !commentGroupContains(cg, marker) {
			continue
		}
		start := fset.Position(cg.Pos()).Line
		end := fset.Position(cg.End()).Line
		for l := start; l <= end; l++ {
			lines[l] = true
		}
	}
	return lines
}

// commentGroupContains reports whether any comment of the group
// carries marker, checking both the rendered text and the raw source
// form: cg.Text() strips comment markers and drops directive-style
// lines ("//anonylint:..." vanishes from Text entirely), so directives
// must be matched against each comment's raw text.
func commentGroupContains(cg *ast.CommentGroup, marker string) bool {
	if strings.Contains(cg.Text(), marker) {
		return true
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// DeclDirective reports whether a declaration's doc comment carries the
// given directive (for example "anonylint:coordinator-only"). Directive
// comments are matched on the raw text because ast.CommentGroup.Text
// strips "//word:rest" directive lines.
func DeclDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	return commentGroupContains(doc, directive)
}
