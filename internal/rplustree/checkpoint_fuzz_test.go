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
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed FuzzDecodeCheckpoint seed corpus from real images")

var fuzzConfig = rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 3}

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
		var store rplustree.BlobStore
		checkpoint := func() rplustree.Footprint {
			ck, err := tr.EncodeCheckpoint(false, store.Put)
			if err != nil {
				t.Fatal(err)
			}
			ck.Commit()
			out = append(out, [2][]byte{ck.Root, bytes.Clone(store.Bytes())})
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
// independent structural audit and survives a round trip through a full
// checkpoint unchanged — never a panic, never a malformed tree.
func FuzzDecodeCheckpoint(f *testing.F) {
	// The real-image seeds are the committed corpus under testdata/fuzz
	// (TestFuzzCorpusIsCurrent keeps it current).
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, root, objects []byte) {
		tr, err := rplustree.DecodeCheckpoint(fuzzConfig, root, rplustree.Blob(objects).Get)
		if err != nil {
			return
		}
		if err := verify.Tree(tr, verify.TreeOptions{}); err != nil {
			t.Fatalf("decoder accepted a tree the audit rejects: %v", err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("decoder accepted a tree that breaks its own invariants: %v", err)
		}
		var store rplustree.BlobStore
		ck, err := tr.EncodeCheckpoint(true, store.Put)
		if err != nil {
			t.Fatal(err)
		}
		back, err := rplustree.DecodeCheckpoint(fuzzConfig, ck.Root, store.Get)
		if err != nil {
			t.Fatalf("decoded tree does not survive a full checkpoint: %v", err)
		}
		if !bytes.Equal(snapshot(t, tr), snapshot(t, back)) {
			t.Fatal("decoded tree changes in a full checkpoint round trip")
		}
	})
}

func snapshot(t *testing.T, tr *rplustree.Tree) []byte {
	t.Helper()
	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
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
