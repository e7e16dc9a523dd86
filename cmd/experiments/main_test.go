package main

import (
	"bytes"
	"strings"
	"testing"

	"spatialanon/internal/experiments"
)

// tinyArgs keeps the suite fast in unit tests.
func tinyArgs(extra ...string) []string {
	return append([]string{"-records", "2000", "-queries", "60", "-ks", "5,10", "-batch", "500", "-batches", "2"}, extra...)
}

// TestSingleFigures: every registered id runs alone and prints one
// table — a title, a header and rows, no blank line.
func TestSingleFigures(t *testing.T) {
	for _, f := range experiments.Figures {
		var out, errBuf bytes.Buffer
		if err := run(tinyArgs("-fig", f.ID), &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if s := out.String(); strings.Count(s, "\n") < 3 || strings.Contains(s, "\n\n") {
			t.Fatalf("%s output: %q", f.ID, s)
		}
	}
}

// TestAllIsTheRegistry: -fig all prints one table per registered id,
// and an unknown id's error names every one of them.
func TestAllIsTheRegistry(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-fig", "all"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	tables := strings.Split(out.String(), "\n\n")
	if len(tables) != len(experiments.Figures) {
		t.Fatalf("%d tables for %d registered figures", len(tables), len(experiments.Figures))
	}
	titles := map[string]bool{}
	for _, table := range tables {
		title, _, _ := strings.Cut(table, "\n")
		titles[title] = true
	}
	if len(titles) != len(tables) {
		t.Fatalf("%d distinct titles over %d tables", len(titles), len(tables))
	}
	err := run([]string{"-fig", "fig13"}, &out, &errBuf)
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, f := range experiments.Figures {
		if !strings.Contains(err.Error(), f.ID) {
			t.Errorf("unknown-id error %q does not list %s", err, f.ID)
		}
	}
}

func TestFig8WithSizes(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-fig", "fig8a", "-sizes", "1000,2000", "-mem", "2"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 8(a)") {
		t.Fatalf("output: %q", out.String())
	}
	out.Reset()
	if err := run(tinyArgs("-fig", "fig8b", "-mem", "4"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 8(b)") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestCommaSeparatedFigures(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-fig", "fig9,fig12c"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 9") || !strings.Contains(s, "Figure 12(c)") {
		t.Fatalf("output: %q", s)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-fig", "nope"},
		{"-ks", "abc"},
		{"-ks", "0"},
		{"-fig", "fig8a", "-sizes", "x"},
		// Negative sizes: rejected up front, not a panic or an empty table.
		{"-fig", "fig12a", "-queries", "-3"},
		{"-fig", "fig7b", "-batch", "-7"},
		{"-fig", "fig7b", "-batches", "-2"},
		{"-fig", "fig9", "-records", "-5"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("5, 10,25")
	if err != nil || len(got) != 3 || got[2] != 25 {
		t.Fatalf("%v %v", got, err)
	}
	if _, err := parseInts("5,-1"); err == nil {
		t.Fatal("negative accepted")
	}
}
