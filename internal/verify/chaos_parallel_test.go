package verify

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/rplustree"
)

// Chaos under parallelism. A load runs on the calling goroutine, and
// with it the pager — and therefore the fault injector, which
// intercepts pager operations — so a faulted load must hit the
// identical fault schedule at every core count: same operation
// count, same injected faults, same recovered tree. These
// tests pin that, plus the sharded regime: concurrent independent
// loaders with per-shard injectors derived from one parent seed, each
// shard replayable in isolation.

// chaosParallelRecords is large enough that Flush splits leaves many
// times over, so the schedule equality below guards that no core count
// reaches the storage schedule. It stays below the root buffer's
// capacity: these loads route no batch before Flush.
const chaosParallelRecords = 12000

// chaosParallelRun bulk loads with faults at GOMAXPROCS procs,
// recovers, verifies, and returns the injector plus the recovered
// record IDs in leaf order.
func chaosParallelRun(t *testing.T, seed int64, procs int) (*fault.Injector, []int64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	recs := dataset.GenerateLandsEnd(chaosParallelRecords, seed)
	tr, err := rplustree.New(rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: chaosBaseK})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(seed, chaosProfile(seed))
	dev := &repairable{inj: inj}
	bl, err := rplustree.NewBulkLoader(tr, rplustree.BulkLoadConfig{RecordBytes: 32, Fault: dev.wrap})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	if err := bl.InsertBatch(recs); err != nil {
		errs++
	}
	if err := bl.Flush(); err != nil {
		errs++
	}
	dev.repair()
	bl.Pager().Scrub()
	if err := bl.Flush(); err != nil {
		t.Fatalf("seed %d procs %d: flush after recovery: %v", seed, procs, err)
	}
	if err := Tree(tr, TreeOptions{}); err != nil {
		t.Fatalf("seed %d procs %d (%d faults, %d load errors): %v",
			seed, procs, inj.Injected(), errs, err)
	}
	var ids []int64
	for _, l := range tr.Leaves() {
		for i := range l.Size() {
			ids = append(ids, l.Record(i).ID)
		}
	}
	return inj, ids
}

// parallelPins are the serial loads' schedules of the seeds below.
var parallelPins = map[int64]string{
	2:    "622 map[torn-write:18 bit-rot:24]",
	3:    "613 map[transient:7 permanent:1 bit-rot:2]",
	5:    "573 map[permanent:3]",
	42:   "616 map[torn-write:12 bit-rot:15]",
	1001: "594 map[permanent:2]",
}

// TestChaosParallelLoadMatchesSerial: for the same seed, the serial
// and parallel loads must intercept the same operation sequence and
// therefore fire the same faults and converge on the same tree. A
// divergence would mean a worker goroutine reached the pager.
func TestChaosParallelLoadMatchesSerial(t *testing.T) {
	injectedTotal := 0
	for _, seed := range []int64{2, 3, 5, 42, 1001} {
		refInj, refIDs := chaosParallelRun(t, seed, 1)
		checkPin(t, parallelPins, seed, refInj)
		injectedTotal += refInj.Injected()
		for _, w := range []int{2, 4} {
			inj, ids := chaosParallelRun(t, seed, w)
			if inj.Ops() != refInj.Ops() {
				t.Fatalf("seed %d procs %d: %d pager ops, want %d — parallelism changed the storage schedule",
					seed, w, inj.Ops(), refInj.Ops())
			}
			if got, want := fmt.Sprint(inj.Counts()), fmt.Sprint(refInj.Counts()); got != want {
				t.Fatalf("seed %d procs %d: fault counts %s, want %s", seed, w, got, want)
			}
			if len(ids) != len(refIDs) {
				t.Fatalf("seed %d procs %d: %d records, want %d", seed, w, len(ids), len(refIDs))
			}
			for i := range refIDs {
				if ids[i] != refIDs[i] {
					t.Fatalf("seed %d procs %d: leaf-order record %d is %d, want %d",
						seed, w, i, ids[i], refIDs[i])
				}
			}
		}
	}
	if injectedTotal == 0 {
		t.Fatal("no faults injected across the schedules; nothing was exercised")
	}
}

// shardOutcome is what one sharded load reports for replay comparison.
type shardOutcome struct {
	counts  map[fault.Kind]int
	ops     int
	records int
}

// TestChaosShardedLoadersReplay: a sharded ingest gives every shard
// its own injector via Derive(shard). Shards run concurrently — legal
// because nothing is shared: tree, loader, pager and injector are all
// per-shard — and afterwards any single shard's schedule replays
// bit-for-bit from (parent seed, shard index) alone, which is what
// makes a failure in a 4-way concurrent run debuggable serially.
func TestChaosShardedLoadersReplay(t *testing.T) {
	const parentSeed = int64(7)
	const shards = 4
	parent := fault.NewInjector(parentSeed, chaosProfile(parentSeed))

	load := func(shard int, inj *fault.Injector) shardOutcome {
		recs := dataset.GenerateLandsEnd(800, parentSeed+int64(shard)*1000)
		tr, err := rplustree.New(rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: chaosBaseK})
		if err != nil {
			t.Error(err)
			return shardOutcome{}
		}
		dev := &repairable{inj: inj}
		bl, err := rplustree.NewBulkLoader(tr, rplustree.BulkLoadConfig{
			PageSize: 128, MemoryBytes: 128 * 16, RecordBytes: 16,
			Fault: dev.wrap,
		})
		if err != nil {
			t.Error(err)
			return shardOutcome{}
		}
		_ = bl.InsertBatch(recs)
		_ = bl.Flush()
		dev.repair()
		bl.Pager().Scrub()
		if err := bl.Flush(); err != nil {
			t.Errorf("shard %d: flush after recovery: %v", shard, err)
			return shardOutcome{}
		}
		if err := Tree(tr, TreeOptions{}); err != nil {
			t.Errorf("shard %d: %v", shard, err)
			return shardOutcome{}
		}
		return shardOutcome{counts: inj.Counts(), ops: inj.Ops(), records: tr.Len()}
	}

	// Concurrent run: one goroutine per shard, injectors derived up
	// front on the coordinating goroutine.
	injs := make([]*fault.Injector, shards)
	for i := range injs {
		injs[i] = parent.Derive(i)
	}
	concurrent := make([]shardOutcome, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = load(i, injs[i])
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Replay: each shard rebuilt serially from the derived seed alone
	// must reproduce the concurrent run exactly.
	injected := 0
	for i := 0; i < shards; i++ {
		replay := load(i, fault.NewInjector(fault.DeriveSeed(parentSeed, i), chaosProfile(parentSeed)))
		if replay.ops != concurrent[i].ops || replay.records != concurrent[i].records ||
			fmt.Sprint(replay.counts) != fmt.Sprint(concurrent[i].counts) {
			t.Fatalf("shard %d: replay %+v diverges from concurrent run %+v", i, replay, concurrent[i])
		}
		injected += replay.ops
	}
	if injected == 0 {
		t.Fatal("shards intercepted no operations")
	}
	// Derived seeds must be distinct from each other and the parent.
	seen := map[int64]bool{parentSeed: true}
	for i := 0; i < shards; i++ {
		s := fault.DeriveSeed(parentSeed, i)
		if seen[s] {
			t.Fatalf("derived seed for shard %d collides", i)
		}
		seen[s] = true
	}
}
