// Command anonylint is the project's multichecker: it runs the rule
// table of internal/lint over the given package patterns and exits 1
// when any finding is reported, 2 when the packages cannot be loaded.
// -list prints each rule's name, scope and summary instead.
//
// Usage:
//
//	anonylint [-list] [-json] [packages]
//
// Patterns default to ./... and follow the go tool's directory-pattern
// forms ("./...", "./internal/query"). anonylint must run from inside
// the module so module-local imports resolve. Findings print as
//
//	path/file.go:line:col: analyzer: message
//
// or, with -json, as one JSON object per line:
//
//	{"file":"path/file.go","line":12,"col":3,"analyzer":"noalloc","message":"…"}
//
// — the machine-readable form CI uses to turn findings into per-line
// annotations instead of a raw log dump.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spatialanon/internal/lint"
	"spatialanon/internal/lint/analysis"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "anonylint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(cli(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// cli is the command run in directory dir; it returns the exit status.
func cli(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anonylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and their scopes, then exit")
	asJSON := fs.Bool("json", false, "emit findings as JSON Lines instead of file:line:col text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: anonylint [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, r := range lint.Rules {
			fmt.Fprintf(stdout, "%-14s %-66s %s\n", r.Name, r.Scope, r.Doc)
		}
		return 0
	}
	findings, err := run(dir, fs.Args())
	if err == nil {
		err = print(stdout, findings, *asJSON)
	}
	if err != nil {
		fmt.Fprintf(stderr, "anonylint: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// finding is one diagnostic in resolved file:line form — the unit both
// output modes print.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads the patterns relative to dir as one program and applies
// the rule table, collecting findings in package order (positions are
// sorted within each rule's output).
func run(dir string, patterns []string) ([]finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var findings []finding
	for _, f := range prog.Run(lint.Rules) {
		pos := prog.Fset.Position(f.Pos)
		findings = append(findings, finding{relTo(dir, pos.Filename), pos.Line, pos.Column, f.Rule, f.Message})
	}
	return findings, nil
}

// print writes the findings as text or JSON Lines.
func print(out io.Writer, findings []finding, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(out)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				return err
			}
		}
		return nil
	}
	for _, f := range findings {
		if _, err := fmt.Fprintf(out, "%s:%d:%d: %s\n", f.File, f.Line, f.Col, f.Message); err != nil {
			return err
		}
	}
	return nil
}

func relTo(base, path string) string {
	rel, err := filepath.Rel(base, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
