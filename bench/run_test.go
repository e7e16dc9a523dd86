package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// summaryLine parses the last line of a run's standard output.
func summaryLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]metricValue) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line is not the summary object: %v\n%s", err, lines[len(lines)-1])
	}
	if s.Correct == nil || s.Attempted == nil || s.Failed == nil || s.Metrics == nil {
		t.Fatalf("summary lacks a key: %s", lines[len(lines)-1])
	}
	return *s.Correct, *s.Attempted, *s.Failed, s.Metrics
}

// TestSmoke runs every workload end to end at toy size, untraced and
// traced: all stages, all correctness gates, the trace file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				result := filepath.Join(dir, "result.json")
				var out bytes.Buffer
				err := run([]string{
					"--workload", w.name, "--seed", "3", "--seconds", "2", "--trace", trace, "-smoke",
					"-dir", dir, "-out-dir", dir, "-out", result,
				}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				correct, attempted, failed, metrics := summaryLine(t, out.String())
				if !correct || failed != 0 || attempted < 100 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", correct, attempted, failed, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(metrics) != len(defs) {
					t.Fatalf("%d metrics in the summary, %d declared", len(metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("metric %s: present %v, unit %q, want %q", d.name, ok, v.Unit, d.unit)
					}
					if trace == "0" && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, v.Value)
					}
				}
				file, err := readResultFile(result)
				if err != nil {
					t.Fatal(err)
				}
				if len(file.Runs) != 1 || file.Provenance["seed"] != "3" || file.Provenance["go"] == "" {
					t.Fatalf("result file: %d runs, provenance %v", len(file.Runs), file.Provenance)
				}
				if trace == "1" {
					checkTrace(t, filepath.Join(dir, w.name+".trace.json"), metrics)
				}
			})
		}
	}
}

func checkTrace(t *testing.T, path string, metrics map[string]metricValue) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Self  []nameTotals `json:"self_time"`
		Spans []span       `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	phases := make(map[string]bool)
	for _, s := range tr.Spans {
		phases[s.Phase] = true
		if s.EndNS < s.StartNS || s.ID == 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
	for _, p := range []string{"setup", "publish", "nominal", "saturate", "recover"} {
		if !phases[p] {
			t.Errorf("no span in phase %q", p)
		}
	}
	if c := metrics["bench.publish_span_cover_pct"].Value; c < 95 {
		t.Errorf("publish spans cover %.1f %% of a rep", c)
	}
	repMS, repSelf, n := total(tr.Self, "publish", "publish.rep")
	if n == 0 || repSelf > 0.05*repMS {
		t.Errorf("publish.rep: %d spans, %.3f of %.3f ms unattributed", n, repSelf, repMS)
	}
}

// total returns the summed duration of one span name in a phase, in ms.
func total(totals []nameTotals, phase, name string) (totalMS, selfMS float64, n int) {
	for _, t := range totals {
		if t.Phase == phase && t.Name == name {
			return t.TotalMS, t.SelfMS, t.Spans
		}
	}
	return 0, 0, 0
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// writeBenchmarkJSON renders the declaration the harness reads.
func writeBenchmarkJSON(path string) error {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, named{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		decl.EndToEnd = append(decl.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	data, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here;
// `go test ./bench -run TestBenchmarkJSON -update` rewrites it from them.
func TestBenchmarkJSON(t *testing.T) {
	if *update {
		if err := writeBenchmarkJSON("../BENCHMARK.json"); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, here %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, here %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, here %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	prov := map[string]string{"host": "h", "nproc": "2", "seed": "42", "seconds": "20", "smoke": "false", "store_fs": "ext4", "commit": "c"}
	file := func(name string, p map[string]string, setup []float64, rate float64) string {
		f := resultFile{Provenance: p}
		for _, v := range setup {
			f.Runs = append(f.Runs, runResult{Workload: "ingest_small", Metrics: map[string]metricValue{
				"setup_s":               {Value: v, Unit: "s"},
				"write_amp":             {Value: 100 / rate, Unit: "bytes/byte"},
				"publish_records_per_s": {Value: rate, Unit: "rec/s"}, // demoted: judged, never fatal
			}})
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	a := file("a.json", prov, steady, 20000)

	var out bytes.Buffer
	if err := compareFiles(a, file("same.json", prov, steady, 19000), &out); err != nil {
		t.Fatalf("within bounds, yet: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "unresolved") || strings.Count(out.String(), " ok") != 2 || strings.Count(out.String(), "[ok]") != 1 {
		t.Fatalf("want two ok rows and one [ok]:\n%s", out.String())
	}

	out.Reset()
	err := compareFiles(a, file("slow.json", prov, []float64{1.4, 1.4, 1.4, 1.4, 1.4}, 14000), &out)
	if err == nil || strings.Count(out.String(), " worse") != 2 || strings.Count(out.String(), "[worse]") != 1 || !strings.Contains(err.Error(), "2 gated") {
		t.Fatalf("a 40 %% slower set-up and a 43 %% higher write amplification must both be worse, the 30 %% lower throughput [worse]: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := compareFiles(a, file("noisy.json", prov, []float64{0.6, 1.0, 1.4, 0.7, 1.3}, 20000), &out); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a spread wider than the bound is unresolved, not ok and not worse: %v\n%s", err, out.String())
	}

	other := map[string]string{}
	for k, v := range prov {
		other[k] = v
	}
	other["seed"] = "7"
	if err := compareFiles(a, file("seed7.json", other, steady, 20000), &out); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("different seeds must not compare: %v", err)
	}
}
