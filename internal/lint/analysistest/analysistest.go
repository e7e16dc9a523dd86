// Package analysistest runs one rule of lint.Rules over a fixture
// package and checks its findings against expectations written in the
// fixture source — the golden-comment convention of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line states its expected findings with a trailing comment:
//
//	rng := rand.Intn(10) // want `detrand: global math/rand`
//
// Each back-quoted or double-quoted string after "want" is a regular
// expression that must match the message of exactly one finding
// reported on that line. Lines without a want comment must produce no
// findings. Fixtures live in testdata/src/<name> beside the rule's
// test, are full compilable packages loaded under the import path
// their directory has in the module, and may import real project
// packages or a sibling fixture package below their own directory:
// the engine loads whatever they import, with its directives.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spatialanon/internal/lint"
	"spatialanon/internal/lint/analysis"
)

// Run applies the named rule, whatever its scope, to the fixture
// package testdata/src/<fixture> and reports mismatches between
// expected and actual findings through t.
func Run(t *testing.T, rule, fixture string) {
	t.Helper()
	var r analysis.Rule
	for _, candidate := range lint.Rules {
		if candidate.Name == rule {
			r = candidate
		}
	}
	if r.Run == nil {
		t.Fatalf("no rule named %s in lint.Rules", rule)
	}
	prog, err := analysis.Load(".", []string{filepath.Join("testdata", "src", fixture)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(prog.Roots) == 0 {
		t.Fatalf("fixture %s has no Go files", fixture)
	}
	pkg := prog.Roots[0]

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pats, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", prog.Fset.Position(c.Pos()), err)
				}
				if len(pats) == 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				k := key{filepath.Base(pos.Filename), pos.Line}
				wants[k] = append(wants[k], pats...)
			}
		}
	}

	for _, d := range prog.Check(pkg, r) {
		pos := prog.Fset.Position(d.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				wants[k][i] = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", pos, d.Message)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// parseWant extracts the expectation regexps from one comment's text,
// returning nil when the comment is not a want comment.
func parseWant(text string) ([]*regexp.Regexp, error) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil, nil
	}
	var out []*regexp.Regexp
	var sc scanner.Scanner
	fset := token.NewFileSet()
	file := fset.AddFile("want", -1, len(rest))
	sc.Init(file, []byte(rest), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			return nil, fmt.Errorf("want comment: expected string literal, got %s %q", tok, lit)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("want comment: bad string %s: %w", lit, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("want comment: bad regexp %q: %w", s, err)
		}
		out = append(out, re)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment carries no expectations")
	}
	return out, nil
}
