package main

import (
	"os"
	"path/filepath"
	"testing"

	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// TestPersistLoadsInBatchFrames: the -persist load step pays one WAL
// frame (one fsync) per loadChunk records, not one per record. The log
// is scanned before the final checkpoint truncates it: after the
// manifest it must hold exactly ⌈n/loadChunk⌉ committed batch frames
// carrying all n inserts.
func TestPersistLoadsInBatchFrames(t *testing.T) {
	const n = 1000
	dir := t.TempDir()
	st, err := wal.Create(wal.Options{
		Dir:  dir,
		Tree: rplustree.Config{Schema: dataset.PatientsSchema(), BaseK: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := loadStore(st, dataset.GeneratePatients(n, 3)); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	sc := wal.NewScanner(img)
	frames, ops := 0, 0
	for first := true; ; first = false {
		payload, ok := sc.Next()
		if !ok {
			break
		}
		rec, err := wal.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			if rec.Type != wal.TypeCheckpointEnd {
				t.Fatalf("log starts with %v, want the manifest", rec.Type)
			}
			continue
		}
		if rec.Type != wal.TypeBatch {
			t.Fatalf("frame %d after the manifest is %v, want batch", frames, rec.Type)
		}
		frames++
		ops += len(rec.Batch)
	}
	if sc.Torn() {
		t.Fatal("log has a torn tail after a clean load")
	}
	if want := (n + loadChunk - 1) / loadChunk; frames != want {
		t.Fatalf("load of %d records left %d batch frames, want %d", n, frames, want)
	}
	if ops != n || st.Len() != n {
		t.Fatalf("frames carry %d inserts, store holds %d, want %d", ops, st.Len(), n)
	}
}

// TestPersistReopenSameRelease: the release `anonykit reopen` emits
// from the recovered store is byte-identical to the one -persist
// emitted when it built it.
func TestPersistReopenSameRelease(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	built, _ := runOK(t, "-dataset", "patients", "-n", "1000", "-algo", "rtree", "-k", "5", "-seed", "3", "-persist", dir)
	reopened, report := runOK(t, "reopen", "-persist", dir, "-dataset", "patients", "-k", "5")
	if built != reopened {
		t.Fatalf("reopen emitted a different release than -persist built\nrecovery report: %s", report)
	}
}
