package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialanon/internal/lint"
)

// module writes a throw-away module: one library package with one
// panicpolicy violation (line 4, column 2), one clean command, and —
// outside ./... — a package that does not type-check.
func module(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module tmpmod\n\ngo 1.22\n",
		"internal/lib/lib.go": "package lib\n\nfunc Must(ok bool) {\n\tpanic(ok)\n}\n",
		"cmd/tool/main.go":    "package main\n\nimport \"tmpmod/internal/lib\"\n\nfunc main() { lib.Must(true) }\n",
		"_broken/broken.go":   "package broken\n\nvar x int = \"not an int\"\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCLI(t *testing.T) {
	root := module(t)
	const message = "panicpolicy: panic in library code without an invariant: justification comment; return an error, or state the provable programmer error"
	run := func(args ...string) (status int, stdout, stderr string) {
		var out, errs bytes.Buffer
		status = cli(root, args, &out, &errs)
		return status, out.String(), errs.String()
	}

	status, out, errs := run()
	if want := "internal/lib/lib.go:4:2: " + message + "\n"; status != 1 || out != want || errs != "" {
		t.Errorf("text: status %d, stdout %q, stderr %q; want 1, %q", status, out, errs, want)
	}

	status, out, _ = run("-json", "./...")
	var got finding
	if err := json.Unmarshal([]byte(out), &got); err != nil || status != 1 || strings.Count(out, "\n") != 1 {
		t.Fatalf("-json: status %d, stdout %q: %v", status, out, err)
	}
	if want := (finding{"internal/lib/lib.go", 4, 2, "panicpolicy", message}); got != want {
		t.Errorf("-json: %+v, want %+v", got, want)
	}
	for _, key := range []string{`"file":`, `"line":`, `"col":`, `"analyzer":`, `"message":`} {
		if !strings.Contains(out, key) {
			t.Errorf("-json: no %s key in %s", key, out)
		}
	}

	if status, out, errs = run("./cmd/..."); status != 0 || out != "" || errs != "" {
		t.Errorf("clean package: status %d, stdout %q, stderr %q", status, out, errs)
	}

	status, out, errs = run("./_broken")
	if status != 2 || out != "" || !strings.HasPrefix(errs, "anonylint: load tmpmod/_broken: type errors:") {
		t.Errorf("load error: status %d, stdout %q, stderr %q", status, out, errs)
	}
	if status, _, _ = run("./nowhere"); status != 2 {
		t.Errorf("missing directory: status %d, want 2", status)
	}

	status, out, _ = run("-list")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if status != 0 || len(lines) != len(lint.Rules) {
		t.Fatalf("-list: status %d, %d lines for %d rules:\n%s", status, len(lines), len(lint.Rules), out)
	}
	for i, r := range lint.Rules {
		if f := strings.Fields(lines[i]); f[0] != r.Name || !strings.Contains(lines[i], r.Scope.String()) || !strings.HasSuffix(lines[i], r.Doc) {
			t.Errorf("-list line %d = %q, want name %s, scope %s and summary", i, lines[i], r.Name, r.Scope)
		}
	}
	if !strings.Contains(out, "internal/*, cmd/* except internal/experiments, internal/lint") {
		t.Errorf("-list does not print detrand's scope:\n%s", out)
	}
}
