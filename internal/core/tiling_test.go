package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
)

// scanBase builds base partitions of the given sizes (0 = an empty
// partition), each owning its records, record i at QI {i, -i}, its ID
// i plus first.
func scanBase(sizes []int, first int64) []anonmodel.Partition {
	base := make([]anonmodel.Partition, len(sizes))
	id := 0
	for i, n := range sizes {
		var recs []attr.Record
		for j := 0; j < n; j++ {
			recs = append(recs, attr.Record{ID: first + int64(id), QI: []float64{float64(id), -float64(id)}})
			id++
		}
		base[i] = anonmodel.Partition{Box: attr.DomainOf(2, recs), Records: recs}
	}
	return base
}

// TestScanMatchesSerialReference: the planned, windowed scan equals
// anonmodel.LeafScan partition for partition, box for box, record for
// record — at every GOMAXPROCS, on a fresh base, on an already
// tiled one, and on a concatenation of tilings — including empty base
// partitions in the middle and at the tail and the LS4 absorbed tail.
func TestScanMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // each case sets its own
	shapes := [][]int{
		{3, 3, 3, 3},
		{1, 2, 3, 4, 5, 6, 7, 1}, // tail of 1 is absorbed (LS4)
		{4, 0, 0, 2, 5, 0, 3, 1}, // empties in the middle
		{5, 5, 0, 0},             // empties at the tail are dropped
		{2, 0, 1, 0},             // absorbed tail followed by empties
		{0, 0, 6, 1, 1},
		{7},
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		shape := make([]int, 1+rng.Intn(40))
		for j := range shape {
			if rng.Intn(5) > 0 {
				shape[j] = rng.Intn(9)
			}
		}
		shapes = append(shapes, shape)
	}
	for _, shape := range shapes {
		total := 0
		for _, n := range shape {
			total += n
		}
		for _, k := range []int{2, 3, 5, 11} {
			c := anonmodel.KAnonymity{K: k}
			want, wantErr := anonmodel.LeafScan(scanBase(shape, 0), c)
			for _, workers := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(workers)
				name := fmt.Sprintf("shape %v k=%d workers=%d", shape, k, workers)
				fine, err := Tiling{Partitions: scanBase(shape, 0)}.Scan(c)
				if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(fine.Partitions, want) {
					t.Fatalf("%s:\n got %v\nwant %v", name, fine.Partitions, want)
				}
				if len(want) == 0 {
					continue // nothing but empty partitions: an empty release
				}
				// A second granularity over the first: windows of the same
				// array, equal to the reference run over the reference.
				c2 := anonmodel.All{c, anonmodel.KAnonymity{K: 2*k + 1}}
				want2, wantErr2 := anonmodel.LeafScan(want, c2)
				coarse, err := fine.Scan(c2)
				if (err != nil) != (wantErr2 != nil) {
					t.Fatalf("%s, second scan: error %v, reference %v", name, err, wantErr2)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(coarse.Partitions, want2) {
					t.Fatalf("%s, second scan:\n got %v\nwant %v", name, coarse.Partitions, want2)
				}
				// Reads the Records field: zero-copy sharing is pinned by slice identity.
				if total > 0 && &coarse.Partitions[0].Records[0] != &fine.Partitions[0].Records[0] {
					t.Fatalf("%s: second scan copied the records", name)
				}
				// The same base cut in two, scanned apart at the base
				// constraint and laid end to end: the joint scan equals
				// the reference over the concatenation, seam group included.
				cut := len(fine.Partitions) / 2
				joint := Concat(Tiling{Partitions: fine.Partitions[:cut], arrays: fine.arrays}, Tiling{}, Tiling{Partitions: fine.Partitions[cut:], arrays: fine.arrays})
				got, err := joint.Scan(c2)
				if err != nil || !reflect.DeepEqual(got.Partitions, want2) {
					t.Fatalf("%s, concatenated scan: %v\n got %v\nwant %v", name, err, got.Partitions, want2)
				}
			}
		}
	}
}

// TestConcatScanCopiesOnlySeamGroups: over a concatenation of two
// tilings with arrays of their own, groups inside one constituent are
// windows of its array and only the group straddling the seam is a
// copy — and the output still equals the reference scan.
func TestConcatScanCopiesOnlySeamGroups(t *testing.T) {
	k2 := anonmodel.KAnonymity{K: 2}
	left, err := Tiling{Partitions: scanBase([]int{2, 2, 2, 2, 2}, 0)}.Scan(k2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := Tiling{Partitions: scanBase([]int{2, 2, 2, 2}, 100)}.Scan(k2)
	if err != nil {
		t.Fatal(err)
	}
	joint := Concat(left, right)
	k4 := anonmodel.KAnonymity{K: 4}
	got, err := joint.Scan(k4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := anonmodel.LeafScan(joint.Partitions, k4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Partitions, want) {
		t.Fatalf("joint scan:\n got %v\nwant %v", got.Partitions, want)
	}
	// Groups: left[0:2], left[2:4], left[4]+right[0] (the seam),
	// right[1:3]+right[3] absorbed.
	if len(got.Partitions) != 4 {
		t.Fatalf("%d groups, want 4", len(got.Partitions))
	}
	ps := got.Partitions
	// Reads the Records field: zero-copy sharing is pinned by slice identity.
	if &ps[0].Records[0] != &left.Partitions[0].Records[0] || &ps[1].Records[0] != &left.Partitions[2].Records[0] {
		t.Fatal("groups inside the left shard were copied")
	}
	if &ps[3].Records[0] != &right.Partitions[1].Records[0] {
		t.Fatal("group inside the right shard was copied")
	}
	if &ps[2].Records[0] == &left.Partitions[4].Records[0] {
		t.Fatal("seam group aliases the left shard's array")
	}
}

func loadedRT(t testing.TB, cfg RTreeConfig, recs []attr.Record) *RTreeAnonymizer {
	t.Helper()
	a, err := NewRTreeAnonymizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Load(recs); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReleasesAreReadOnlyWindows: every granularity of one
// MultiGranular call shares the base release's record array; every
// Records slice is cap-limited, so appending to one partition
// reallocates instead of overwriting its neighbour.
func TestReleasesAreReadOnlyWindows(t *testing.T) {
	a := loadedRT(t, RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: 5}, dataset.GeneratePatients(3000, 151))
	rels, err := a.MultiGranular([]int{5, 25, 125})
	if err != nil {
		t.Fatal(err)
	}
	base := rels[0].Partitions
	for _, r := range rels[1:] {
		// Reads the Records field: zero-copy sharing is pinned by slice identity.
		if &r.Partitions[0].Records[0] != &base[0].Records[0] {
			t.Fatalf("granularity %d is a copy, not a window of the base release's array", r.Granularity)
		}
	}
	for _, r := range rels {
		for i, p := range r.Partitions {
			if cap(p.Records) != len(p.Records) {
				t.Fatalf("granularity %d partition %d: cap %d > len %d", r.Granularity, i, cap(p.Records), len(p.Records))
			}
		}
	}
	neighbour := append([]attr.Record(nil), base[1].Records...)
	grown := append(base[0].Records, attr.Record{ID: -1})
	if len(grown) != len(base[0].Records)+1 || !reflect.DeepEqual(base[1].Records, neighbour) {
		t.Fatal("append to a released partition wrote into its neighbour")
	}
}

// TestPartitionsAtBaseK: k1 == BaseK is the base release itself
// whenever the installed constraint already guarantees BaseK records
// per partition — not a second scan and a second copy.
func TestPartitionsAtBaseK(t *testing.T) {
	recs := dataset.GeneratePatients(2000, 152)
	a := loadedRT(t, RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: 5}, recs)
	base, err := a.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := a.MultiGranular([]int{0, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		k1         int
		sameAsBase bool
	}{{0, true}, {5, true}, {6, false}} {
		ps, err := a.Partitions(tc.k1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(ps, base) != tc.sameAsBase {
			t.Fatalf("Partitions(%d) equal to the base release: %v, want %v", tc.k1, !tc.sameAsBase, tc.sameAsBase)
		}
		if !reflect.DeepEqual(rels[i].Partitions, ps) {
			t.Fatalf("MultiGranular and Partitions disagree at k1=%d", tc.k1)
		}
		if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: max(tc.k1, 5)}); err != nil {
			t.Fatalf("k1=%d: %v", tc.k1, err)
		}
		if tc.sameAsBase && &rels[i].Partitions[0] != &rels[0].Partitions[0] {
			t.Fatalf("k1=%d: a second partition set, want the base release itself", tc.k1)
		}
		// Reads the Records field: zero-copy sharing is pinned by slice identity.
		if &rels[i].Partitions[0].Records[0] != &rels[0].Partitions[0].Records[0] {
			t.Fatalf("k1=%d: a second record array", tc.k1)
		}
	}
	// A constraint weaker than BaseK promises less than k1 == BaseK
	// asks for, so that granularity is still derived by a scan.
	weak := loadedRT(t, RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: 5, Constraint: anonmodel.KAnonymity{K: 2}}, recs)
	ps, err := weak.Partitions(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 5}); err != nil {
		t.Fatal(err)
	}
}

// cloneReleases deep-copies a release family, QI values included.
func cloneReleases(rels []Release) []Release {
	out := make([]Release, len(rels))
	for i, r := range rels {
		out[i].Granularity = r.Granularity
		for _, p := range r.Partitions {
			var recs []attr.Record
			for j := range p.Size() {
				recs = append(recs, p.Record(j).Clone())
			}
			out[i].Partitions = append(out[i].Partitions, anonmodel.Partition{Box: p.Box.Clone(), Records: recs})
		}
	}
	return out
}

// TestReleaseDoesNotAliasLiveLeaves: a release family taken before a
// thousand further inserts and deletes is unchanged by them — the one
// copy at the base scan is what separates it from the tree.
func TestReleaseDoesNotAliasLiveLeaves(t *testing.T) {
	recs := dataset.GeneratePatients(3000, 153)
	a := loadedRT(t, RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: 5}, recs[:2000])
	rels, err := a.MultiGranular([]int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	before := cloneReleases(rels)
	rng := rand.New(rand.NewSource(153))
	live := append([]attr.Record(nil), recs[:2000]...)
	next := 2000
	for op := 0; op < 1000; op++ {
		if op%2 == 0 {
			if err := a.Insert(recs[next]); err != nil {
				t.Fatal(err)
			}
			live = append(live, recs[next])
			next++
			continue
		}
		i := rng.Intn(len(live))
		if found, err := a.Delete(live[i].ID, live[i].QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", live[i].ID, found, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if !reflect.DeepEqual(rels, before) {
		t.Fatal("a published release changed under later inserts and deletes")
	}
}

// TestMultiGranularCopiesRecordsOnce counts bytes, not time: three
// granularities over n records allocate less than two record arrays —
// one copy at the base scan plus headers and boxes — where a copy per
// granularity (and a base re-scan per granularity) needed about five.
func TestMultiGranularCopiesRecordsOnce(t *testing.T) {
	const n, k = 50000, 10
	a := loadedRT(t, RTreeConfig{Schema: dataset.LandsEndSchema(), BaseK: k}, dataset.GenerateLandsEnd(n, 154))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rels, err := a.MultiGranular([]int{k, 5 * k, 25 * k})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if anonmodel.TotalRecords(r.Partitions) != n {
			t.Fatalf("granularity %d lost records", r.Granularity)
		}
	}
	recordArray := uint64(n) * uint64(unsafe.Sizeof(attr.Record{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*recordArray {
		t.Fatalf("MultiGranular allocated %d bytes, want < 2 record arrays (%d)", got, 2*recordArray)
	}
}

// BenchmarkMultiGranular measures the publish path's release
// derivation alone: three granularities from one loaded index.
func BenchmarkMultiGranular(b *testing.B) {
	a := loadedRT(b, RTreeConfig{
		Schema:   dataset.LandsEndSchema(),
		BaseK:    10,
		BulkLoad: &rplustree.BulkLoadConfig{MemoryBytes: 8 << 20, RecordBytes: 32},
	}, dataset.GenerateLandsEnd(100000, 155))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MultiGranular([]int{10, 50, 250}); err != nil {
			b.Fatal(err)
		}
	}
}
