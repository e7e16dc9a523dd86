package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
)

func runOK(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errBuf.String())
	}
	return out.String(), errBuf.String()
}

func TestRTreeOnPatients(t *testing.T) {
	out, report := runOK(t, "-dataset", "patients", "-n", "200", "-algo", "rtree", "-k", "10", "-seed", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 201 {
		t.Fatalf("%d output lines", len(lines))
	}
	if lines[0] != "age,sex,zipcode,ailment" {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(report, "rtree: 200 records") || !strings.Contains(report, "10-anonymity") {
		t.Fatalf("report: %q", report)
	}
	if !strings.Contains(report, "discernibility") {
		t.Fatalf("report missing metrics: %q", report)
	}
}

// TestEveryAlgorithmRuns: every registry name passes validateFlags, and
// the CSV it writes for 600 Lands End-like records (seed 11, k=6,
// compacted, the B⁺-tree on Zipcode) is byte for byte what the last
// commit with one adapter type per algorithm (PR 21) wrote — SHA-256
// captured from that commit's binary.
func TestEveryAlgorithmRuns(t *testing.T) {
	golden := map[string]string{
		"rtree":            "1606e2527e04e08e42aef4b35806b121701f57a627f2053678c457569faebf62",
		"mondrian":         "c20ed9ee099d88d0d530632ae2b4426291ff1cbdf0fb0f32e390ec97575a6f1c",
		"mondrian-relaxed": "bcc98d392edc2244690f5255c8384bf39dbaa6f352f29c3a777e8f2c9d69b930",
		"hilbert":          "66a8e2e6b43d83d4a8c58034fead28052411d604d63d3ccd98b43a3b7ef06802",
		"zorder":           "d3fec9f52767ba7893939d45fc0ce831d50e98b8e87f598895d6541497a3f255",
		"grid":             "480e1011636c2b5438cbe2900a7c6ad41af7e597d1a3915f56f043c8bf300b17",
		"quad":             "eeb16f41ce5d449be223baaabdfa556075c7fd406a4d332f26237eeb01aaf807",
		"bptree":           "818b26f0d1766eed4ac4b5c0d914ceda95a341193c44f2f8bd2f8642c751c0ae",
	}
	if len(golden) != len(core.Algorithms) {
		t.Fatalf("%d golden digests for %d registered algorithms", len(golden), len(core.Algorithms))
	}
	for _, algo := range core.AlgorithmNames() {
		if _, err := validateFlags(dataset.LandsEndSchema(), algo, 600, false, 6, 0, 0, "", "", "", "", ""); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		args := []string{"-dataset", "landsend", "-n", "600", "-seed", "11", "-k", "6", "-algo", algo, "-compact", "-quiet"}
		if algo == core.BPTree {
			args = append(args, "-key", "zipcode")
		}
		out, _ := runOK(t, args...)
		if strings.Count(out, "\n") != 601 {
			t.Fatalf("%s: wrong row count", algo)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != golden[algo] {
			t.Errorf("%s: CSV digest %s, pinned %s", algo, got, golden[algo])
		}
	}
}

func TestConstraintFlags(t *testing.T) {
	_, report := runOK(t, "-dataset", "patients", "-n", "400", "-algo", "rtree", "-k", "5", "-l", "3")
	if !strings.Contains(report, "l-diversity") {
		t.Fatalf("report: %q", report)
	}
	_, report = runOK(t, "-dataset", "patients", "-n", "400", "-algo", "mondrian", "-k", "5", "-alpha", "0.6")
	if !strings.Contains(report, "(0.6,5)-anonymity") {
		t.Fatalf("report: %q", report)
	}
}

func TestBiasFlag(t *testing.T) {
	_, report := runOK(t, "-dataset", "landsend", "-n", "500", "-algo", "rtree", "-k", "5", "-bias", "zipcode")
	if !strings.Contains(report, "rtree") {
		t.Fatalf("report: %q", report)
	}
}

func TestCSVInOut(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	out := filepath.Join(dir, "out.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, dataset.PatientsSchema(), dataset.GeneratePatients(100, 9)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runOK(t, "-dataset", "patients", "-in", in, "-out", out, "-algo", "mondrian", "-k", "10", "-compact", "-quiet")
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) != 101 {
		t.Fatal("output row count wrong")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-dataset", "nope"},
		{"-algo", "nope"},
		{"-k", "0"},
		{"-k", "5", "-l", "2", "-alpha", "0.5"},
		{"-dataset", "patients", "-n", "0"},
		{"-dataset", "landsend", "-algo", "rtree", "-bias", "nope", "-n", "50"},
		{"-in", "/does/not/exist.csv"},
		{"-dataset", "patients", "-n", "50", "-algo", "bptree", "-key", "nope"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error message
	}{
		{"negative k", []string{"-k", "-3"}, "-k must be >= 2"},
		{"zero k", []string{"-k", "0"}, "-k must be >= 2"},
		{"identity k", []string{"-k", "1"}, "-k must be >= 2"},
		{"unknown algo", []string{"-algo", "kd-tree"}, `unknown algorithm "kd-tree"`},
		{"zero n", []string{"-n", "0"}, "-n must be >= 1"},
		{"negative n", []string{"-n", "-5"}, "-n must be >= 1"},
		{"negative l", []string{"-l", "-1"}, "-l must be >= 0"},
		{"l and alpha", []string{"-l", "2", "-alpha", "0.5"}, "mutually exclusive"},
		{"alpha above one", []string{"-alpha", "1.5"}, "-alpha must be in (0,1]"},
		{"negative alpha", []string{"-alpha", "-0.2"}, "-alpha must be in (0,1]"},
		{"l without sensitive", []string{"-dataset", "landsend", "-l", "2"}, "sensitive attribute"},
		{"alpha without sensitive", []string{"-dataset", "agrawal", "-alpha", "0.5"}, "sensitive attribute"},
		{"bias off rtree", []string{"-algo", "mondrian", "-bias", "zipcode"}, "-bias only applies"},
		{"key off bptree", []string{"-algo", "rtree", "-key", "age"}, "-key only applies"},
		{"granularities off rtree", []string{"-algo", "grid", "-granularities", "5,10", "-out", "/tmp/x.csv"}, "requires -algo rtree"},
		{"granularities without out", []string{"-granularities", "10,20"}, "needs -out"},
		{"granularity unparsable", []string{"-granularities", "10,abc", "-out", "/tmp/x.csv"}, `bad granularity "abc"`},
		{"granularity zero", []string{"-granularities", "0", "-out", "/tmp/x.csv"}, `bad granularity "0"`},
		{"granularity below k", []string{"-k", "10", "-granularities", "20,5", "-out", "/tmp/x.csv"}, "finer than the base k=10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			err := run(tc.args, &out, &errBuf)
			if err == nil {
				t.Fatalf("run(%v) succeeded", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestBuildConstraint(t *testing.T) {
	c, err := buildConstraint(5, 0, 0)
	if err != nil || c.(anonmodel.KAnonymity).K != 5 {
		t.Fatalf("%v %v", c, err)
	}
	if _, err := buildConstraint(0, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	c, _ = buildConstraint(5, 3, 0)
	if c.(anonmodel.LDiversity).L != 3 {
		t.Fatalf("%v", c)
	}
	c, _ = buildConstraint(5, 0, 0.4)
	if c.(anonmodel.AlphaK).Alpha != 0.4 {
		t.Fatalf("%v", c)
	}
}

func TestMultiGranular(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "release.csv")
	_, report := runOK(t,
		"-dataset", "patients", "-n", "800", "-seed", "12",
		"-algo", "rtree", "-k", "5",
		"-granularities", "5,20,50", "-out", out)
	for _, k := range []int{5, 20, 50} {
		path := filepath.Join(dir, "release.k"+strconv.Itoa(k)+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("release k=%d missing: %v", k, err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 801 {
			t.Fatalf("k=%d release has %d lines", k, lines)
		}
	}
	if !strings.Contains(report, "collusion check over 3 releases: safe at k=5") {
		t.Fatalf("report: %q", report)
	}
}

func TestMultiGranularErrors(t *testing.T) {
	var outBuf, errBuf bytes.Buffer
	cases := [][]string{
		{"-dataset", "patients", "-n", "100", "-algo", "mondrian", "-granularities", "5,10", "-out", "/tmp/x.csv"},
		{"-dataset", "patients", "-n", "100", "-algo", "rtree", "-granularities", "5,10"},
		{"-dataset", "patients", "-n", "100", "-algo", "rtree", "-granularities", "abc", "-out", "/tmp/x.csv"},
		{"-dataset", "patients", "-n", "100", "-algo", "rtree", "-k", "10", "-granularities", "5", "-out", "/tmp/x.csv"},
	}
	for _, args := range cases {
		if err := run(args, &outBuf, &errBuf); err == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
	}
}
