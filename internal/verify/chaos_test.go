package verify

import (
	"fmt"
	"sort"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
)

// The chaos harness: seeded fault schedules against bulk loads and
// incremental insert streams, asserting the contract of the whole
// robustness layer — every injected fault ends in a returned error or
// a tree this package certifies, never silent corruption, and after
// storage recovery (disarm + Scrub) the load completes with every
// record accounted for.

const chaosBaseK = 5

// chaosProfile derives a fault mix from the seed so the suite covers
// transient-only, permanent, corrupting, and mixed schedules.
func chaosProfile(seed int64) fault.Config {
	switch seed % 4 {
	case 0: // retryable noise, mostly absorbed by the loader's retries
		return fault.Config{TransientReadRate: 0.05, TransientWriteRate: 0.05}
	case 1: // a few pages die mid-load
		return fault.Config{PermanentReadRate: 0.01, PermanentWriteRate: 0.01, MaxFaults: 3}
	case 2: // silent data damage, surfaced later by checksums
		return fault.Config{TornWriteRate: 0.05, BitRotRate: 0.05}
	default: // everything at once, armed mid-load
		return fault.Config{
			TransientReadRate: 0.03, TransientWriteRate: 0.03,
			PermanentWriteRate: 0.005,
			TornWriteRate:      0.02, BitRotRate: 0.02,
			After: 50, MaxFaults: 10,
		}
	}
}

// repairable is the harness's page device: the loader's disk behind the
// injector until repair takes the injector out of the path — the storage
// recovery every schedule ends with, after which the injector sees no
// further operation.
type repairable struct {
	pager.Disk
	raw pager.Disk
	inj *fault.Injector
}

// wrap installs the device in front of the loader's disk
// (BulkLoadConfig.Fault).
func (r *repairable) wrap(d pager.Disk) pager.Disk {
	r.Disk, r.raw = r.inj.Disk(d), d
	return r
}

func (r *repairable) repair() { r.Disk = r.raw }

// chaosPins are a few seeds' schedules, one per fault profile and load
// mode: the operations the injector intercepted and the faults it fired
// by kind. They pin every PRNG draw of the schedule.
var chaosPins = map[int64]string{
	0:    "262 map[transient:9]",
	1:    "149 map[permanent:1]",
	2:    "143 map[torn-write:5 bit-rot:5]",
	3:    "213 map[transient:2 torn-write:1 bit-rot:3]",
	42:   "119 map[torn-write:3 bit-rot:6]",
	1000: "47 map[transient:1]",
	1002: "46 map[torn-write:3 bit-rot:1]",
	1004: "54 map[transient:4]",
	1014: "40 map[torn-write:1 bit-rot:1]",
}

// checkPin asserts a pinned seed's schedule replays exactly.
func checkPin(t *testing.T, pins map[int64]string, seed int64, inj *fault.Injector) {
	t.Helper()
	got := fmt.Sprint(inj.Ops(), " ", inj.Counts())
	if want, ok := pins[seed]; ok && got != want {
		t.Fatalf("seed %d: schedule %s, pinned %s", seed, got, want)
	}
}

// runSchedule executes one seeded schedule and returns the number of
// faults the injector fired. Any panic fails the test; any invariant
// violation after recovery fails the test.
func runSchedule(t *testing.T, seed int64, incremental bool) int {
	t.Helper()
	n := 600
	if incremental {
		n = 300
	}
	recs := dataset.GeneratePatients(n, seed)

	tr, err := rplustree.New(rplustree.Config{Schema: dataset.PatientsSchema(), BaseK: chaosBaseK})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(seed, chaosProfile(seed))
	dev := &repairable{inj: inj}
	bl, err := rplustree.NewBulkLoader(tr, rplustree.BulkLoadConfig{
		PageSize: 128, MemoryBytes: 128 * 16, RecordBytes: 16,
		Fault: dev.wrap,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Faulted phase: errors are expected and collected; panics or lost
	// records are the failures under test.
	var faultedErrs []error
	observe := func(err error) {
		if err != nil {
			faultedErrs = append(faultedErrs, err)
		}
	}
	if incremental {
		for i, r := range recs {
			observe(bl.Insert(r))
			if i%61 == 60 {
				observe(bl.Flush())
			}
		}
	} else {
		observe(bl.InsertBatch(recs))
	}
	observe(bl.Flush())

	// Recovery: repair the device, restore corrupted pages from the
	// (modeled) replica, and finish the load. This must now succeed.
	dev.repair()
	bl.Pager().Scrub()
	if err := bl.Flush(); err != nil {
		t.Fatalf("seed %d: flush after recovery: %v", seed, err)
	}

	// A faulted run must end exactly where a fault-free run would:
	// certified structure and the same record set. No occupancy floor
	// here — even fault-free loads legitimately leave an occasional
	// leaf under k (duplicate-heavy splits); k is re-established by
	// the leaf scan and audited on the releases below.
	if err := Tree(tr, TreeOptions{}); err != nil {
		t.Fatalf("seed %d (%d faults, %d errors): %v", seed, inj.Injected(), len(faultedErrs), err)
	}
	var got []int64
	base := tr.Leaves()
	minLeaf := len(recs)
	for _, l := range base {
		minLeaf = min(minLeaf, l.Size())
		for i := range l.Size() {
			got = append(got, l.Record(i).ID)
		}
	}
	want := make([]int64, 0, len(recs))
	for _, r := range recs {
		want = append(want, r.ID)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d records survived of %d (injected %d faults)", seed, len(got), len(want), inj.Injected())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: record set diverges at %d: %d vs %d", seed, i, got[i], want[i])
		}
	}

	// The recovered tree must publish safely at every granularity, and
	// the family must be jointly k-bound (Lemma 1).
	var sets [][]anonmodel.Partition
	for _, k := range []int{chaosBaseK, 2 * chaosBaseK, 4 * chaosBaseK} {
		cons := anonmodel.KAnonymity{K: k}
		ps, err := core.LeafScanP(base, cons, 1)
		if err != nil {
			t.Fatalf("seed %d: leaf scan k=%d: %v", seed, k, err)
		}
		if err := Release(ps, cons); err != nil {
			t.Fatalf("seed %d: release k=%d: %v", seed, k, err)
		}
		sets = append(sets, ps)
	}
	// Intersection cells are unions of whole leaves (leaf-scan cuts
	// fall only between leaves), so the provable joint bound is the
	// smallest leaf — chaosBaseK except when a duplicate-heavy split
	// left one leaf just under k.
	kBound := chaosBaseK
	if minLeaf < kBound {
		kBound = minLeaf
	}
	if err := Releases(sets, kBound); err != nil {
		t.Fatalf("seed %d: k-boundness: %v", seed, err)
	}
	checkPin(t, chaosPins, seed, inj)
	return inj.Injected()
}

func TestChaosBulkLoad(t *testing.T) {
	injected := 0
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			injected += runSchedule(t, seed, false)
		})
	}
	if injected == 0 {
		t.Fatal("no faults injected across the bulk-load schedules; rates too low to exercise anything")
	}
}

func TestChaosIncrementalInserts(t *testing.T) {
	injected := 0
	for seed := int64(1000); seed < 1100; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			injected += runSchedule(t, seed, true)
		})
	}
	if injected == 0 {
		t.Fatal("no faults injected across the incremental schedules; rates too low to exercise anything")
	}
}

// A targeted drill for the recovery path: corrupt a known page behind
// the loader's back, watch the checksum surface it as a typed error,
// scrub, and finish.
func TestChaosScrubRecoversBitRot(t *testing.T) {
	tr, err := rplustree.New(rplustree.Config{Schema: dataset.PatientsSchema(), BaseK: chaosBaseK})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := rplustree.NewBulkLoader(tr, rplustree.BulkLoadConfig{
		PageSize: 128, MemoryBytes: 128 * 16, RecordBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.InsertBatch(dataset.GeneratePatients(600, 77)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Rot one bit of the lowest-numbered page still on disk (early IDs
	// are often buffer pages that were freed when consumed). The page
	// may or may not be read again by later work, so instead of
	// asserting the error here we assert the stronger property: after
	// Scrub everything proceeds and verifies.
	rotted := false
	for id := pager.PageID(1); id < 10000 && !rotted; id++ {
		rotted = bl.Pager().FlipBit(id, 3) == nil
	}
	if !rotted {
		t.Fatal("no on-disk page found to corrupt")
	}
	if repaired, err := bl.Pager().Scrub(); err != nil || len(repaired) != 1 {
		t.Fatalf("scrub repaired %v pages (err %v), want exactly the rotted one", repaired, err)
	}
	more := dataset.GeneratePatients(200, 78)
	for i := range more {
		more[i].ID += 100000
	}
	if err := bl.InsertBatch(more); err != nil {
		t.Fatal(err)
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Tree(tr, TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 800 {
		t.Fatalf("Len = %d", tr.Len())
	}
}
