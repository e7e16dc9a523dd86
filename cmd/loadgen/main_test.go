package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"spatialanon/internal/dataset"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput: %s", args, err, out.String())
	}
	return out.String()
}

// shardCounts is the table every churn assertion runs over: a store is
// the fleet of one, driven and reported by the same code as a fleet of
// three.
var shardCounts = []string{"1", "3"}

// sumMatches adds up capture group `group` of re over every match in
// out — one per shard for the per-shard lines.
func sumMatches(t *testing.T, out string, re *regexp.Regexp, group int) int {
	t.Helper()
	ms := re.FindAllStringSubmatch(out, -1)
	if len(ms) == 0 {
		t.Fatalf("no line matches %v:\n%s", re, out)
	}
	sum := 0
	for _, m := range ms {
		n, err := strconv.Atoi(m[group])
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	return sum
}

var (
	writesRE      = regexp.MustCompile(`writes: (\d+) ops`)
	checkpointsRE = regexp.MustCompile(`checkpoints: (\d+) \(\d+ full\), \d+ leaves`)
	overloadRE    = regexp.MustCompile(`shard \d+ errors: issued=(\d+) acked=(\d+) shed=(\d+)`)
	digitsRE      = regexp.MustCompile(`\d+`)
	// lineShapeRE strips a report line down to its kind: shard indices,
	// counts and durations vary between runs and shard counts, the
	// sequence of line kinds must not.
	lineShapeRE = regexp.MustCompile(`^(loadgen|shard \d+ [a-z]+|shard|checkpoints|coordinator|reads)\b`)
)

// reportShape lists the kinds of report lines in order, collapsing the
// per-shard block to one entry per kind.
func reportShape(t *testing.T, out string) []string {
	t.Helper()
	var shape []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		kind := lineShapeRE.FindString(line)
		if kind == "" {
			t.Fatalf("unrecognized report line %q in:\n%s", line, out)
		}
		kind = digitsRE.ReplaceAllString(kind, "N")
		if !slices.Contains(shape, kind) {
			shape = append(shape, kind)
		}
	}
	return shape
}

// TestMixedLoad drives the full closed loop — writers and readers —
// on a small store with fsync disabled so the test is fast on any
// filesystem, and checks the report lines appear with sane content.
func TestMixedLoad(t *testing.T) {
	shapes := map[string][]string{}
	for _, shards := range shardCounts {
		t.Run("shards="+shards, func(t *testing.T) {
			out := runOK(t,
				"-dir", t.TempDir(), "-n", "600", "-ops", "300", "-shards", shards,
				"-writers", "4", "-readers", "2", "-batch", "16", "-k", "5", "-nosync", "-checkpoint", "50")
			for _, want := range []string{"reads:", "ops/sec", "p50", "p99", "commits:", "checkpoints: "} {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
			if got := sumMatches(t, out, writesRE, 1); got != 300 {
				t.Fatalf("report accounts for %d writes, want 300:\n%s", got, out)
			}
			// 300 writes at -checkpoint 50 on top of each store's preload:
			// the line reports real checkpoints, not just the creation one.
			if got := sumMatches(t, out, checkpointsRE, 1); got < 4 {
				t.Fatalf("checkpoints line reports %d checkpoints, want at least 4:\n%s", got, out)
			}
			if !strings.Contains(out, "coordinator: partial reads=0 ") {
				t.Fatalf("coordinator line missing with -shards %s:\n%s", shards, out)
			}
			if got := len(writesRE.FindAllString(out, -1)); strconv.Itoa(got) != shards {
				t.Fatalf("%d per-shard write lines with -shards %s:\n%s", got, shards, out)
			}
			shapes[shards] = reportShape(t, out)
		})
	}
	// One front end: the fleet of one prints the report a fleet of three
	// prints — per-shard lines, checkpoints, the coordinator's line.
	if !slices.Equal(shapes["1"], shapes["3"]) {
		t.Fatalf("report shape differs by shard count:\n-shards 1: %q\n-shards 3: %q", shapes["1"], shapes["3"])
	}
}

// TestWriteOnly pins the degenerate no-reader shape.
func TestWriteOnly(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run("shards="+shards, func(t *testing.T) {
			out := runOK(t,
				"-dir", t.TempDir(), "-n", "200", "-ops", "120", "-shards", shards,
				"-writers", "2", "-readers", "0", "-k", "4", "-nosync", "-dataset", "patients")
			if got := sumMatches(t, out, writesRE, 1); got != 120 {
				t.Fatalf("write-only run misreported (%d writes):\n%s", got, out)
			}
			if strings.Contains(out, "reads:") {
				t.Fatalf("write-only run reported reads:\n%s", out)
			}
		})
	}
}

// TestEveryDataset runs a small write-only load on each data set the
// registry names: the flag accepts what dataset.Lookup does.
func TestEveryDataset(t *testing.T) {
	for _, name := range []string{"patients", "landsend", "agrawal"} {
		if !strings.Contains(dataset.Names(), name) {
			t.Fatalf("dataset.Names() = %q lacks %s", dataset.Names(), name)
		}
		out := runOK(t, "-dir", t.TempDir(), "-n", "200", "-ops", "40",
			"-writers", "2", "-readers", "0", "-k", "4", "-nosync", "-dataset", name)
		if got := sumMatches(t, out, writesRE, 1); got != 40 {
			t.Fatalf("-dataset %s: %d of 40 writes reported:\n%s", name, got, out)
		}
	}
}

// TestOverloadReport drives far more closed-loop writers than the
// queue admits, so the bounded queue must shed — typed, counted, and
// without aborting the run.
func TestOverloadReport(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run("shards="+shards, func(t *testing.T) {
			out := runOK(t,
				"-dir", t.TempDir(), "-n", "300", "-ops", "2000", "-shards", shards,
				"-writers", "12", "-readers", "0", "-batch", "1", "-queue", "1",
				"-k", "4", "-nosync", "-overload")
			if issued := sumMatches(t, out, overloadRE, 1); issued != 2000 {
				t.Fatalf("overload report accounts for %d of 2000 issued:\n%s", issued, out)
			}
			if !strings.Contains(out, "state=healthy") {
				t.Fatalf("server counters line missing:\n%s", out)
			}
			acked := sumMatches(t, out, overloadRE, 2)
			shed := sumMatches(t, out, overloadRE, 3)
			if shed == 0 {
				t.Fatalf("queue of 1 against 12 writers never shed:\n%s", out)
			}
			if acked+shed > 2000 {
				t.Fatalf("acked %d + shed %d exceed issued 2000:\n%s", acked, shed, out)
			}
		})
	}
}

// TestSIGINTDrains interrupts a read-only run mid-window and expects a
// graceful drain: run returns nil well before the window ends, with
// the interrupt noted and the read report still printed.
func TestSIGINTDrains(t *testing.T) {
	for _, shards := range shardCounts {
		t.Run("shards="+shards, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			done := make(chan error, 1)
			go func() {
				done <- run([]string{"-dir", dir, "-n", "200", "-k", "4", "-shards", shards,
					"-writers", "0", "-readers", "2", "-nosync"}, &out)
			}()
			time.Sleep(300 * time.Millisecond)
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("interrupted run failed: %v\n%s", err, out.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatal("run did not drain after SIGINT")
			}
			if !strings.Contains(out.String(), "interrupt") {
				t.Fatalf("drain not reported:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "reads:") {
				t.Fatalf("partial read report missing:\n%s", out.String())
			}
		})
	}
}

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-writers", "0", "-readers", "0"}, &out); err == nil {
		t.Fatal("zero writers and readers accepted")
	}
	if err := run([]string{"-n", "3", "-k", "10", "-nosync"}, &out); err == nil {
		t.Fatal("preload below k accepted")
	}
	if err := run([]string{"-dataset", "nope", "-nosync"}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestReadProfile drives the accelerated read path: per-class report
// lines with ops/sec, quantiles and a calibrated allocs/op that must
// be zero on the warm session.
func TestReadProfile(t *testing.T) {
	out := runOK(t,
		"-dir", t.TempDir(), "-profile", "read", "-n", "800", "-ops", "400",
		"-writers", "2", "-readers", "3", "-k", "5", "-nosync")
	for _, want := range []string{"points: 400 ops", "ranges: 400 ops", "ops/sec", "allocs/op", "epochs:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, m := range regexp.MustCompile(`(points|ranges): .*allocs/op ([\d.]+)`).FindAllStringSubmatch(out, -1) {
		if a, _ := strconv.ParseFloat(m[2], 64); a != 0 {
			t.Fatalf("%s report %s allocs/op, want 0:\n%s", m[1], m[2], out)
		}
	}
}

// TestReadProfileValidation pins the profile flag's error cases.
func TestReadProfileValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "nope", "-nosync"}, &out); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"-profile", "read", "-readers", "0", "-writers", "2", "-nosync"}, &out); err == nil {
		t.Fatal("read profile without readers accepted")
	}
	if err := run([]string{"-profile", "read", "-shards", "2", "-nosync"}, &out); err == nil {
		t.Fatal("read profile over several key ranges accepted")
	}
}
