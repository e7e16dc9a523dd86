// Command bench is the repository's benchmark of record: four workloads,
// the end-to-end metrics a user of the system sees, and — in a separate
// traced pass — per-layer metrics named after the modules they time.
// Every layer is measured from outside, by timing calls into its public
// functions. README.md in this directory says what is measured and why.
//
//	go run ./bench -workload all -seed 42 -out result.json
//	go run ./bench -workload serve_large -seed 7 -seconds 20 -trace 1
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the flags of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	runs     int
	dir      string // store directories live under it
	outDir   string // trace files
	out      string // result file
}

const defaultSeconds = 20

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "bulk_publish, ingest_small, serve_large, shard_mixed, or all (each in a fresh child process)")
	fs.Int64Var(&o.seed, "seed", 42, "the only source of randomness: every input derives from it")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed stages of one run")
	fs.IntVar(&trace, "trace", 0, "1 = the traced pass: spans, probes and per-layer metrics, at a third of the duration")
	fs.BoolVar(&o.smoke, "smoke", false, "toy sizes: every stage and gate of every workload in a few seconds")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, …; results report the median and the quartile spread")
	fs.StringVar(&o.dir, "dir", ".bench_tmp", "directory for store files (created; its filesystem is recorded)")
	fs.StringVar(&o.outDir, "out-dir", ".bench_out", "directory for trace files")
	fs.StringVar(&o.out, "out", "", "write the result file here")
	fs.BoolVar(&compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace is 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	for _, d := range []string{o.dir, o.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	return runOne(o, stdout)
}

// runOne runs one workload in this process and prints its metrics; the
// last line of standard output is the run's summary as one JSON object.
func runOne(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.smoke {
		w = w.smoke()
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := runJourney(w, o)
	if err != nil {
		return err
	}
	printRun(stdout, res)
	if o.out != "" {
		file := resultFile{Provenance: provenance(o), Runs: []runResult{res}}
		if err := file.write(o.out); err != nil {
			return err
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := res.Metrics[d.name]
		v.Samples = 0
		summary.Metrics[d.name] = v
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: outputs are wrong: %s", w.name, strings.Join(res.Problems, "; "))
	}
	return nil
}

// runAll runs every workload in a fresh child process each — the binary
// re-executes itself — so peak RSS, GC state and caches do not leak from
// one workload into the next.
func runAll(o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.outDir, "runs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	file := resultFile{Provenance: provenance(o)}
	var failed []string
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			for _, traced := range []bool{false, true}[:1+btoi(o.trace)] {
				out := filepath.Join(tmp, fmt.Sprintf("%s-%d-%v.json", w.name, r, traced))
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(traced)),
					"-dir", o.dir, "-out-dir", o.outDir, "-out", out,
				}
				if o.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
				}
				child, err := readResultFile(out)
				if err != nil {
					continue // the child said why on standard error
				}
				file.Runs = append(file.Runs, child.Runs...)
			}
		}
	}
	if o.out != "" {
		if err := file.write(o.out); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printRun prints every metric of the run by name with its unit, then the
// attempted/failed count of every op class.
func printRun(w io.Writer, res runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass)\n", res.Workload, pass)
	tables := [][]metricDef{endToEnd, perLayer}
	if res.Traced {
		// The gated metrics always come from the untraced pass.
		tables = tables[1:]
	}
	for _, defs := range tables {
		for _, d := range defs {
			v := res.Metrics[d.name]
			if v.Samples == 0 && v.Value == 0 {
				continue
			}
			n := ""
			if v.Samples > 0 {
				n = fmt.Sprintf("  (n=%d)", v.Samples)
			}
			fmt.Fprintf(w, "%-34s %14.6g %-10s%s\n", d.name, v.Value, v.Unit, n)
		}
	}
	names := make([]string, 0, len(res.Classes))
	for name := range res.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := res.Classes[name]
		fmt.Fprintf(w, "%-34s attempted %d, failed %d\n", name, c.Attempted, c.Failed)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "WRONG: %s\n", p)
	}
}

// resultFile is what -out writes: where the numbers come from, then one
// entry per run.
type resultFile struct {
	Provenance map[string]string `json:"provenance"`
	Runs       []runResult       `json:"runs"`
}

func (f resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// provenance records what a result depends on besides the code under
// test: two result files compare only if host, nproc and seed agree.
func provenance(o options) map[string]string {
	host, _ := os.Hostname()
	return map[string]string{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"host":       host,
		"kernel":     kernel(),
		"store_dir":  o.dir,
		"store_fs":   filesystem(o.dir),
		"fsync":      "on",
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"smoke":      strconv.FormatBool(o.smoke),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout (the harness runs the benchmark from a plain copy).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		c += "-dirty"
	}
	return c
}

func kernel() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// filesystem names the filesystem type holding dir, from the kernel's
// magic number; latencies are this sandbox's, not a device's.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
