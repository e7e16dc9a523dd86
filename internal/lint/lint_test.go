package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"spatialanon/internal/lint"
	"spatialanon/internal/lint/analysis"
)

// TestRules pins the table against the tree it describes: names are
// unique, every rule has a fixture beside its test, every scope covers
// at least one real package, and every exemption still names one.
func TestRules(t *testing.T) {
	prog, err := analysis.Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range lint.Rules {
		if seen[r.Name] {
			t.Errorf("%s: declared twice", r.Name)
		}
		seen[r.Name] = true
		if r.Doc == "" || r.Run == nil {
			t.Errorf("%s: incomplete row", r.Name)
		}
		if _, err := os.Stat(filepath.Join(r.Name, "testdata", "src", r.Name, "fixture.go")); err != nil {
			t.Errorf("%s: no fixture: %v", r.Name, err)
		}
		covered := 0
		for _, pkg := range prog.Roots {
			if r.Scope.Covers(pkg.Rel) {
				covered++
			}
		}
		if covered == 0 {
			t.Errorf("%s: scope %s covers no package", r.Name, r.Scope)
		}
		for _, tree := range r.Scope.Except {
			within, exempt := analysis.Scope{In: r.Scope.In}, analysis.Scope{In: []string{tree}}
			exempted := false
			for _, pkg := range prog.Roots {
				exempted = exempted || (within.Covers(pkg.Rel) && exempt.Covers(pkg.Rel))
			}
			if !exempted {
				t.Errorf("%s: exemption %s names no package inside %v", r.Name, tree, r.Scope.In)
			}
		}
	}
}

// TestScope pins the matching and the rendering `anonylint -list`
// prints: a tree covers its root and everything below it, on path
// segments.
func TestScope(t *testing.T) {
	s := analysis.Scope{In: []string{"internal", "cmd"}, Except: []string{"internal/lint"}}
	for rel, want := range map[string]bool{
		"internal/wal": true, "cmd/anonykit": true, "internal": true,
		"internal/lint": false, "internal/lint/analysis": false, "internal/linty": true,
		"": false, "bench": false, "internals": false,
	} {
		if got := s.Covers(rel); got != want {
			t.Errorf("%s covers %q = %v, want %v", s, rel, got, want)
		}
	}
	if got, want := s.String(), "internal/*, cmd/* except internal/lint"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if every := (analysis.Scope{}); !every.Covers("") || !every.Covers("bench") || every.String() != "everywhere" {
		t.Errorf("the zero scope is %q and does not cover everything", every)
	}
}
