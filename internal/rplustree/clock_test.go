package rplustree

import (
	"math/rand"
	"slices"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// clockLedger recounts, without reading a stamp, which nodes a checkpoint
// has to write: it keeps what every node held when the last checkpoint was
// COMMITTED and which leaves an operation has been routed to since. A leaf
// is dirty when it was minted since, routed to since, or holds other
// records than it did (an underflow repair's orphans land anywhere); an
// internal node when it was minted since, its children differ, or a child
// is dirty. The one-clock invariant is that this is exactly !durable().
type clockLedger struct {
	committed map[*node]nodeCopy
	touched   map[*node]bool
}

type nodeCopy struct {
	ids      []int64
	children []*node
}

func recordIDs(recs []attr.Record) []int64 {
	ids := make([]int64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

func newClockLedger() *clockLedger {
	return &clockLedger{committed: map[*node]nodeCopy{}, touched: map[*node]bool{}}
}

// commit notes that a checkpoint of tr as it stands was committed — or that
// tr was decoded from one.
func (l *clockLedger) commit(tr *Tree) {
	l.committed, l.touched = map[*node]nodeCopy{}, map[*node]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		l.committed[n] = nodeCopy{recordIDs(n.recs), slices.Clone(n.childNodes())}
		for _, c := range n.childNodes() {
			walk(c)
		}
	}
	walk(tr.root)
}

// touch notes, before it runs, that an operation at qi is about to change
// the leaf owning that point.
func (l *clockLedger) touch(tr *Tree, qi []float64) {
	l.touched[tr.routeToLeaf(tr.root, qi)] = true
}

// check compares the recount with the stamps, node by node, and returns
// how many nodes are dirty.
func (l *clockLedger) check(t *testing.T, tr *Tree, step int) (dirtyNodes int) {
	t.Helper()
	var walk func(n *node) bool
	walk = func(n *node) bool {
		was, known := l.committed[n]
		dirty := !known || l.touched[n] || !slices.Equal(n.childNodes(), was.children) || !slices.Equal(recordIDs(n.recs), was.ids)
		for _, c := range n.childNodes() {
			if walk(c) {
				dirty = true
			}
		}
		if dirty == n.durable() {
			t.Fatalf("step %d: a node of %d records (leaf %v, minted since the last commit %v) is durable()=%v, the recount says dirty=%v",
				step, n.count, n.isLeaf(), !known, n.durable(), dirty)
		}
		if dirty {
			dirtyNodes++
		}
		return dirty
	}
	walk(tr.root)
	return dirtyNodes
}

// TestOneClockInvariant is the recount after every operation of seeded
// runs that grow a tree, purge it down to nothing and grow it again — leaf
// and internal splits, underflow repairs, collapsing single-child chains —
// with a checkpoint every few operations: most committed, one in four
// abandoned (the stamps must then still stand against the commit before it),
// one in eight full, and now and then the run goes on against the decoded
// tree, whose clock starts over.
func TestOneClockInvariant(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Schema: dataset.PatientsSchema(), BaseK: 2, NodeCapacity: 2 + int(seed%3)}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var store blobStore
		var live []attr.Record
		ledger := newClockLedger() // nothing committed yet: a fresh root has no copy
		for step, ckpts := 0, 0; step < 400; step++ {
			purge := step%200 >= 100
			if len(live) > 0 && rng.Float64() < map[bool]float64{false: 0.2, true: 0.9}[purge] {
				j := rng.Intn(len(live))
				victim := live[j]
				live = slices.Delete(live, j, j+1)
				ledger.touch(tr, victim.QI)
				if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
					t.Fatalf("seed %d step %d: delete %d: found=%v err=%v", seed, step, victim.ID, found, err)
				}
			} else {
				r := attr.Record{ID: int64(step), QI: []float64{float64(rng.Intn(90)), float64(rng.Intn(2)), float64(52000 + rng.Intn(900))}}
				live = append(live, r)
				ledger.touch(tr, r.QI)
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			// What the recount calls dirty is what an incremental checkpoint writes.
			if dirty, w := ledger.check(t, tr, step), dryRun(t, tr); w.Leaves+w.Deltas+w.Nodes+w.NodeDeltas != dirty {
				t.Fatalf("seed %d step %d: the recount has %d dirty nodes, a checkpoint would write %+v", seed, step, dirty, w)
			}
			if rng.Intn(4) != 0 {
				continue
			}
			ck := mustCheckpoint(t, tr, ckpts%8 == 5, &store)
			if ckpts++; ckpts%4 == 0 {
				ledger.check(t, tr, step) // abandoned: nothing has changed
				continue
			}
			ck.Commit()
			if ckpts%4 == 2 {
				if tr, err = DecodeCheckpoint(cfg, ck.Root, store.get); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			ledger.commit(tr)
			ledger.check(t, tr, step)
		}
	}
}
