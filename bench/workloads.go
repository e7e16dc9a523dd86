package main

import (
	"fmt"
	"time"
)

// workload is one set of inputs to the journey: the same stages run on
// every workload, sized and weighted so that a different set of layers
// does the work on each. Names are final; later issues cite them.
type workload struct {
	name string
	why  string

	// records generated and bulk-published; the first storeN of them
	// are preloaded into the serving target.
	n, storeN int
	target    targetConfig

	writeRate    float64 // nominal open-loop writes per second
	readRate     float64 // open-loop queries per second beside the writers; 0 = no reader there
	refreshEvery int     // queries between two refreshes of that reader's sessions

	// Shares of -seconds given to the timed stages: publish reps, the
	// nominal writes, the quiet reads, saturation. The publish stage runs
	// one discarded rep and at least minPublishReps timed ones however
	// small its share.
	publishShare, writeShare, readShare, saturateShare float64
}

const (
	minPublishReps = 4
	minReps        = 5 // of set-up and of recovery
	maxReps        = 12
	repBudget      = time.Second
	poolRecords    = 1 << 16 // QI vectors for fresh and re-drawn records
	// Enough distinct queries that their mean cost hardly depends on
	// which records the seed picked them from.
	pointQueries = 4096
	rangeQueries = 1024
)

// The nominal write rates sit at 35–50 % of the saturation throughput
// measured on the reference sandbox (2 cores, ext4, fsync on); see
// README.md, "Rates".
var workloads = []workload{
	{
		name: "bulk_publish",
		why:  "offline publisher: buffer-tree load, multi-granular release and audit of 500k records take most of the run; the serving stages run on a 50k store",
		n:    500_000, storeN: 50_000,
		target:       targetConfig{checkpointEvery: 20_000},
		writeRate:    2000,
		publishShare: 0.62, writeShare: 0.12, readShare: 0.12, saturateShare: 0.08,
	},
	{
		name: "ingest_small",
		why:  "durable writes on a 20k store that fits every cache: fsync and goroutine hand-offs dominate, publish cost is minor, no reader beside the writers",
		n:    20_000, storeN: 20_000,
		target:       targetConfig{checkpointEvery: 20_000},
		writeRate:    2000,
		publishShare: 0.10, writeShare: 0.35, readShare: 0.15, saturateShare: 0.15,
	},
	{
		name: "serve_large",
		why:  "reads beside writes on a 200k store far larger than the pager pool: publish, checkpoint stalls and per-epoch index builds dominate",
		n:    200_000, storeN: 200_000,
		target:    targetConfig{checkpointEvery: 500},
		writeRate: 100, readRate: 1000, refreshEvery: 1000,
		publishShare: 0.18, writeShare: 0.42, readShare: 0.18, saturateShare: 0.10,
	},
	{
		name: "shard_mixed",
		why:  "4-shard coordinator on 2 cores: routing by key, four fsync pipelines, cross-seam moves, joint audited releases, whole-fleet recovery",
		n:    100_000, storeN: 100_000,
		target:    targetConfig{shards: 4, checkpointEvery: 2000},
		writeRate: 1000, readRate: 4, refreshEvery: 4,
		publishShare: 0.08, writeShare: 0.45, readShare: 0.20, saturateShare: 0.12,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to toy size: every stage and gate still runs.
func (w workload) smoke() workload {
	const storeN = 2000
	w.n, w.storeN = storeN*min(w.n/w.storeN, 2), storeN
	w.target.checkpointEvery = min(w.target.checkpointEvery, 500)
	w.writeRate = min(w.writeRate, 500)
	if w.readRate > 0 {
		w.readRate, w.refreshEvery = 200, 50
	}
	return w
}
