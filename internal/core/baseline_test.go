package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
)

// releaseDigest folds a release into one FNV-1a value: partition by
// partition, the box bounds then the record IDs, in order. Two releases
// with the same digest group the same records under the same boxes in
// the same sequence.
func releaseDigest(ps []anonmodel.Partition) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, p := range ps {
		put(uint64(len(p.Box)))
		for _, iv := range p.Box {
			put(math.Float64bits(iv.Lo))
			put(math.Float64bits(iv.Hi))
		}
		put(uint64(p.Size()))
		for i := range p.Size() {
			put(uint64(p.Record(i).ID))
		}
	}
	return h.Sum64()
}

// TestBaselineDigests pins every registered algorithm's output, and the
// buffer-tree-loaded R⁺-tree's, on 3 000 Lands End-like records (seed
// 7) under one size-only and one content-inspecting constraint. The
// constants were recorded before the index packages were moved onto the
// one Partition vocabulary and the one reference scan (PR 19) — the
// relaxed Mondrian's at the last commit that had adapter types (PR 21)
// — and a refactor of those paths must leave them unchanged.
func TestBaselineDigests(t *testing.T) {
	s := dataset.LandsEndSchema()
	constraints := []anonmodel.Constraint{
		anonmodel.KAnonymity{K: 10},
		anonmodel.LDiversity{K: 8, L: 3},
	}
	const buffered = "rtree-buffer"
	build := func(name string, c anonmodel.Constraint) (Anonymizer, error) {
		if name == buffered {
			return NewRTreeAnonymizer(RTreeConfig{
				Schema: s, Constraint: c,
				BulkLoad: &rplustree.BulkLoadConfig{MemoryBytes: 1 << 20, RecordBytes: 32},
			})
		}
		return New(name, Params{Schema: s, Constraint: c})
	}
	want := map[string]uint64{
		"rtree-buffer/10-anonymity":                      0x8445a4a0d4a41109,
		"rtree/10-anonymity":                             0xb49e91a0cdc9a2b3,
		"mondrian/10-anonymity":                          0xdbbb0cee93876147,
		"mondrian-relaxed/10-anonymity":                  0xbf74a8dc5577c90e,
		"hilbert/10-anonymity":                           0xa0b89a36b8ce84ca,
		"zorder/10-anonymity":                            0xa0c1661480391cbf,
		"grid/10-anonymity":                              0x25edbc657da4b3e3,
		"quad/10-anonymity":                              0x8d3486a98219170,
		"bptree/10-anonymity":                            0x8f6287c88bb2c99b,
		"rtree-buffer/(8,3)-k-anonymity+l-diversity":     0xbdacd93280a0e986,
		"rtree/(8,3)-k-anonymity+l-diversity":            0xf0f227f1906dbb80,
		"mondrian/(8,3)-k-anonymity+l-diversity":         0x1d4c2a21dec4d292,
		"mondrian-relaxed/(8,3)-k-anonymity+l-diversity": 0x4a06dfa04373cc04,
		"hilbert/(8,3)-k-anonymity+l-diversity":          0x4944fb0f2f88048d,
		"zorder/(8,3)-k-anonymity+l-diversity":           0x30c95a8cabe91d64,
		"grid/(8,3)-k-anonymity+l-diversity":             0xa0492abf9f7b41c1,
		"quad/(8,3)-k-anonymity+l-diversity":             0x78b14fa9e681c313,
		"bptree/(8,3)-k-anonymity+l-diversity":           0x96c8e58b094cfccf,
	}
	for _, c := range constraints {
		for _, name := range append([]string{buffered}, AlgorithmNames()...) {
			key := fmt.Sprintf("%s/%v", name, c)
			recs := dataset.GenerateLandsEnd(3000, 7)
			for i := range recs {
				// Lands End has no sensitive attribute; the ship mode
				// (six values, skewed) stands in so l-diversity has
				// something to inspect.
				recs[i].Sensitive = fmt.Sprint(recs[i].QI[7])
			}
			a, err := build(name, c)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			ps, err := a.Anonymize(recs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if n := anonmodel.TotalRecords(ps); n != 3000 {
				t.Fatalf("%s: %d records published", key, n)
			}
			if err := anonmodel.CheckAnonymity(ps, c); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			pinned, ok := want[key]
			if got := releaseDigest(ps); !ok || got != pinned {
				t.Errorf("%s: digest %#x, pinned %#x (present %v)", key, got, pinned, ok)
			}
		}
	}
}

// TestRoutedLoadDigests pins the absolute output of loads that empty the
// root buffer many times over — Figure 8(b)'s: 40 000 Agrawal records
// (seed 1, base k 5, 36-byte records) streamed in 10 000-record batches
// under 8, 4, 2 and 1 MB, serially and with every core. A routed batch
// reaches interior buffers and the leaf frontier on every emptying, which
// the 3 000-record digests above never do. The leaf digest was recorded
// while routing still partitioned a whole batch before delivering it; a
// loader rewrite must reproduce it or say why not. The reads and writes
// were re-recorded when a node's children became its trie's leaves: the
// loader now visits siblings in trie order, not in the order they were
// created, which moves what the pool holds under 4 MB and less (8 MB
// holds everything) but not the tree.
func TestRoutedLoadDigests(t *testing.T) {
	// The budget changes what the loader charges, never the tree it
	// builds, so one digest covers every row.
	const digest uint64 = 0x4816edbca5c32d73
	want := map[int][2]int64{ // reads, writes
		8 << 20: {0, 1193},
		4 << 20: {84, 1280},
		2 << 20: {339, 1553},
		1 << 20: {415, 1609},
	}
	for _, workers := range []int{1, 0} { // GOMAXPROCS; 0 keeps the default
		for _, mem := range []int{8 << 20, 4 << 20, 2 << 20, 1 << 20} {
			t.Run(fmt.Sprintf("workers=%d/%dMB", workers, mem>>20), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				a, err := NewRTreeAnonymizer(RTreeConfig{
					Schema: dataset.AgrawalSchema(), BaseK: 5,
					BulkLoad: &rplustree.BulkLoadConfig{RecordBytes: 36, MemoryBytes: mem},
				})
				if err != nil {
					t.Fatal(err)
				}
				s := dataset.AgrawalStream(40000, 1)
				for batch := s.NextBatch(10000); len(batch) > 0; batch = s.NextBatch(10000) {
					if err := a.LoadBuffered(batch); err != nil {
						t.Fatal(err)
					}
				}
				if err := a.Sync(); err != nil {
					t.Fatal(err)
				}
				if err := a.Tree().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got := releaseDigest(a.Tree().Leaves()); got != digest {
					t.Errorf("leaf digest %#x, pinned %#x", got, digest)
				}
				reads, writes := a.IOStats()
				if got := [2]int64{reads, writes}; got != want[mem] {
					t.Errorf("%d reads and %d writes, pinned %v", reads, writes, want[mem])
				}
			})
		}
	}
}
