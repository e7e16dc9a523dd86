package rplustree

import (
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// FuzzInsertDeleteInvariants feeds arbitrary byte strings as operation
// tapes (2 bytes per op: coordinates for an insert, or a delete of the
// oldest live record; a second byte ending in four one bits takes a
// checkpoint after the op, which must decode to the live tree's inline
// snapshot, and ending in five the tape goes on against the decoded
// tree, as after a reopen) and checks the full structural invariant set
// afterwards; after every operation the snapshot must equal the leaves
// and every snapshot held from an earlier step must not have moved
// (snapshotLedger), and the nodes a checkpoint has to write must be the
// ones a recount since the last committed one finds (clockLedger). Runs
// over the
// seed corpus as a normal test;
// `go test -fuzz FuzzInsertDeleteInvariants ./internal/rplustree`
// explores further.
func FuzzInsertDeleteInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 1, 2, 3, 4, 200, 200, 200, 200})
	f.Add([]byte{1, 15, 2, 31, 3, 47, 4, 15, 9, 15, 9, 31, 4, 15, 14, 15, 19, 15, 5, 79, 6, 95, 24, 15, 29, 15})
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 6, 15, 7, 31, 9, 31, 8, 15, 14, 31, 11, 31, 12, 15, 19, 31, 13, 31})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			tape = tape[:4096]
		}
		tr, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 2})
		if err != nil {
			t.Fatal(err)
		}
		var live []attr.Record
		var store blobStore
		var ledger snapshotLedger
		clock := newClockLedger()
		nextID := int64(0)
		for i := 0; i+1 < len(tape); i += 2 {
			a, b := tape[i], tape[i+1]
			if a%5 == 4 && len(live) > 0 {
				victim := live[0]
				live = live[1:]
				clock.touch(tr, victim.QI)
				if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
					t.Fatalf("delete of live record %d failed", victim.ID)
				}
			} else {
				r := attr.Record{
					ID: nextID,
					QI: []float64{float64(a), float64(b % 2), float64(52000 + int(b)*8)},
				}
				nextID++
				live = append(live, r)
				clock.touch(tr, r.QI)
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if b&15 == 15 {
				_, got := checkpointMatches(t, tr, &store, i/2)
				if committed := (i/2)%4 != 3; committed {
					if b&16 != 0 {
						tr = got // reopen from it
					}
					clock.commit(tr)
				}
			}
			ledger.check(t, tr)
			clock.check(t, tr, i/2)
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len %d != live %d", tr.Len(), len(live))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Every live record findable at its exact point.
		for _, r := range live {
			found := false
			for _, hit := range tr.Search(attr.PointBox(r.QI)) {
				if hit.ID == r.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("live record %d not found", r.ID)
			}
		}
	})
}
