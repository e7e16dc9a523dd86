package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/sfc"
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
		put(uint64(len(p.Records)))
		for _, r := range p.Records {
			put(uint64(r.ID))
		}
	}
	return h.Sum64()
}

// TestBaselineDigests pins every algorithm's output on 3 000 Lands
// End-like records (seed 7) under one size-only and one
// content-inspecting constraint. The constants were recorded before the
// index packages were moved onto the one Partition vocabulary and the
// one reference scan (PR 19); a refactor of those paths must leave them
// unchanged.
func TestBaselineDigests(t *testing.T) {
	s := dataset.LandsEndSchema()
	constraints := []anonmodel.Constraint{
		anonmodel.KAnonymity{K: 10},
		anonmodel.LDiversity{K: 8, L: 3},
	}
	build := func(name string, c anonmodel.Constraint) Anonymizer {
		switch name {
		case "rtree-buffer", "rtree":
			cfg := RTreeConfig{Schema: s, Constraint: c, Parallelism: 1}
			if name == "rtree-buffer" {
				cfg.BulkLoad = &rplustree.BulkLoadConfig{MemoryBytes: 1 << 20, RecordBytes: 32}
			}
			a, err := NewRTreeAnonymizer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		case "mondrian":
			return &MondrianAnonymizer{Schema: s, Constraint: c, Parallelism: 1}
		case "hilbert":
			return &SFCAnonymizer{Curve: sfc.Hilbert, Constraint: c}
		case "zorder":
			return &SFCAnonymizer{Curve: sfc.ZOrder, Constraint: c}
		case "grid":
			return &GridAnonymizer{Schema: s, Constraint: c}
		case "quadtree":
			return &QuadAnonymizer{Schema: s, Constraint: c}
		case "bptree":
			return &BPTreeAnonymizer{Schema: s, Constraint: c}
		}
		t.Fatalf("unknown algorithm %q", name)
		return nil
	}
	want := map[string]uint64{
		"rtree-buffer/10-anonymity":                  0x8445a4a0d4a41109,
		"rtree/10-anonymity":                         0xb49e91a0cdc9a2b3,
		"mondrian/10-anonymity":                      0xdbbb0cee93876147,
		"hilbert/10-anonymity":                       0xa0b89a36b8ce84ca,
		"zorder/10-anonymity":                        0xa0c1661480391cbf,
		"grid/10-anonymity":                          0x25edbc657da4b3e3,
		"quadtree/10-anonymity":                      0x8d3486a98219170,
		"bptree/10-anonymity":                        0x8f6287c88bb2c99b,
		"rtree-buffer/(8,3)-k-anonymity+l-diversity": 0xbdacd93280a0e986,
		"rtree/(8,3)-k-anonymity+l-diversity":        0xf0f227f1906dbb80,
		"mondrian/(8,3)-k-anonymity+l-diversity":     0x1d4c2a21dec4d292,
		"hilbert/(8,3)-k-anonymity+l-diversity":      0x4944fb0f2f88048d,
		"zorder/(8,3)-k-anonymity+l-diversity":       0x30c95a8cabe91d64,
		"grid/(8,3)-k-anonymity+l-diversity":         0xa0492abf9f7b41c1,
		"quadtree/(8,3)-k-anonymity+l-diversity":     0x78b14fa9e681c313,
		"bptree/(8,3)-k-anonymity+l-diversity":       0x96c8e58b094cfccf,
	}
	for _, c := range constraints {
		for _, name := range []string{"rtree-buffer", "rtree", "mondrian", "hilbert", "zorder", "grid", "quadtree", "bptree"} {
			key := fmt.Sprintf("%s/%v", name, c)
			recs := dataset.GenerateLandsEnd(3000, 7)
			for i := range recs {
				// Lands End has no sensitive attribute; the ship mode
				// (six values, skewed) stands in so l-diversity has
				// something to inspect.
				recs[i].Sensitive = fmt.Sprint(recs[i].QI[7])
			}
			ps, err := build(name, c).Anonymize(recs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if n := anonmodel.TotalRecords(ps); n != 3000 {
				t.Fatalf("%s: %d records published", key, n)
			}
			if err := anonmodel.CheckAnonymity(ps, c); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := releaseDigest(ps); got != want[key] {
				t.Errorf("%s: digest %#x, pinned %#x", key, got, want[key])
			}
		}
	}
}
