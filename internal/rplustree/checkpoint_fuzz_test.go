package rplustree_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed FuzzDecodeCheckpoint seed corpus from real images")

var fuzzConfig = rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 3}

// blobGet resolves references against one byte string by offset and
// length — the fuzz input's stand-in for the pager.
func blobGet(blob []byte) func(rplustree.Ref) ([]byte, error) {
	return func(ref rplustree.Ref) ([]byte, error) {
		end := uint64(ref.Off) + uint64(ref.Len)
		if end > uint64(len(blob)) {
			return nil, fmt.Errorf("reference [%d,%d) outside %d object bytes", ref.Off, end, len(blob))
		}
		return blob[ref.Off:end], nil
	}
}

// realImages are checkpoints of real trees — an empty one, a single
// leaf, a few levels after inserts, the same after deletions with
// underflow repairs, a few more inserts and a second, incremental
// checkpoint, which stores the touched leaves as deltas, and after three
// more inserts and a third, which stores nodes as deltas too — as (root
// object, object bytes) pairs.
func realImages(t testing.TB) [][2][]byte {
	t.Helper()
	var out [][2][]byte
	for _, n := range []int{0, 2, 25, 60} {
		tr, err := rplustree.New(fuzzConfig)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		recs := make([]attr.Record, n)
		for i := range recs {
			qi := make([]float64, fuzzConfig.Schema.Dims())
			for d := range qi {
				qi[d] = float64(rng.Intn(1000))
			}
			recs[i] = attr.Record{ID: int64(i + 1), QI: qi, Sensitive: strings.Repeat("x", i%4)}
			if err := tr.Insert(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var blob []byte
		checkpoint := func() rplustree.Footprint {
			ck, err := tr.EncodeCheckpoint(false, func(enc []byte, leaf bool) (rplustree.Ref, error) {
				ref := rplustree.Ref{Pages: []pager.PageID{1}, Off: uint32(len(blob)), Len: uint32(len(enc))}
				blob = append(blob, enc...)
				return ref, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ck.Commit()
			out = append(out, [2][]byte{ck.Root, bytes.Clone(blob)})
			return ck.Written
		}
		checkpoint()
		if n >= 25 {
			for _, r := range recs[:n/3] {
				if _, err := tr.Delete(r.ID, r.QI); err != nil {
					t.Fatal(err)
				}
				if r.ID%4 == 0 {
					r.ID += int64(n)
					if err := tr.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if wrote := checkpoint(); wrote.Deltas < 2 || wrote.DeltaBytes < 100 {
				t.Fatalf("the second image of %d records holds %+v: want deltas with rows in them", n, wrote)
			}
			for i, r := range recs[n-3:] {
				r.ID = int64(3*n + i)
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if wrote := checkpoint(); n == 60 && wrote.NodeDeltas < 2 {
				t.Fatalf("the third image of %d records holds %+v: want node deltas", n, wrote)
			}
		}
	}
	return out
}

// FuzzDecodeCheckpoint holds the checkpoint decoder to its contract:
// for an arbitrary root object over arbitrary object bytes — references
// leading anywhere in them, to a sibling's object, an ancestor's, the
// wrong kind's — it returns an error or a tree that passes the
// independent structural audit and re-encodes — never a panic, never a
// malformed tree.
func FuzzDecodeCheckpoint(f *testing.F) {
	// The real-image seeds are the committed corpus under testdata/fuzz
	// (TestFuzzCorpusIsCurrent keeps it current).
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, root, objects []byte) {
		tr, err := rplustree.DecodeCheckpoint(fuzzConfig, root, blobGet(objects))
		if err != nil {
			return
		}
		if err := verify.Tree(tr, verify.TreeOptions{}); err != nil {
			t.Fatalf("decoder accepted a tree the audit rejects: %v", err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("decoder accepted a tree that breaks its own invariants: %v", err)
		}
		snap, err := tr.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rplustree.DecodeSnapshot(fuzzConfig, snap); err != nil {
			t.Fatalf("decoded tree does not survive a snapshot round trip: %v", err)
		}
	})
}

// TestFuzzCorpusIsCurrent keeps the committed seed corpus
// (testdata/fuzz/FuzzDecodeCheckpoint) equal to the real images above,
// so a format change cannot leave `go test -fuzz` mutating stale bytes
// that fail at the version word. `go test ./internal/rplustree -run
// TestFuzzCorpusIsCurrent -update` rewrites it.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint")
	for i, img := range realImages(t) {
		path := filepath.Join(dir, fmt.Sprintf("real-image-%d", i))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\n", img[0], img[1])
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to write the corpus)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (run with -update)", path)
		}
	}
}
