package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints one row per (workload, user-visible metric) with
// both medians, their ratio, the bound, and a verdict:
//
//	ok          b is no worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  not worse, but a side's run-to-run spread is wider than
//	            the bound, so "unchanged" cannot be claimed
//
// It refuses files from different hosts, core counts or seeds, and
// fails if any gated row is worse; a demoted metric's verdict is printed
// in brackets and fails nothing.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	for _, key := range []string{"host", "nproc", "seed", "seconds", "smoke", "store_fs"} {
		if a.Provenance[key] != b.Provenance[key] {
			return fmt.Errorf("not comparable: %s is %q in %s and %q in %s", key, a.Provenance[key], pathA, b.Provenance[key], pathB)
		}
	}
	fmt.Fprintf(w, "a = %s (commit %s)\nb = %s (commit %s)\n", pathA, a.Provenance["commit"], pathB, b.Provenance["commit"])
	fmt.Fprintf(w, "%-13s %-22s %13s %13s %9s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for i, d := range append(append([]metricDef(nil), endToEnd...), demoted...) {
			gated := i < len(endToEnd)
			va, vb := a.values(wl.name, d.name), b.values(wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 {
				continue // the workload does not have this metric (no reader beside its writers)
			}
			verdict := "ok"
			switch {
			case ma == 0:
				verdict = "unresolved"
			case d.better == "lower" && mb > ma*(1+d.bound), d.better == "higher" && mb < ma*(1-d.bound):
				verdict = "worse"
				if gated {
					worse++
				}
			case quartileSpread(va) > d.bound, quartileSpread(vb) > d.bound:
				verdict = "unresolved"
			}
			if !gated {
				verdict = "[" + verdict + "]"
			}
			fmt.Fprintf(w, "%-13s %-22s %13.6g %13.6g %9.4f %5.0f%%  %s\n", wl.name, d.name, ma, mb, mb/ma, 100*d.bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d gated metrics are worse in %s than in %s (base) by more than their bound", worse, pathB, pathA)
	}
	return nil
}

// values lists a metric's value in every untraced run of a workload.
func (f resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced && !math.IsNaN(v.Value) {
			out = append(out, v.Value)
		}
	}
	return out
}
