package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

const testK = 4

func newStore(t testing.TB, dir string) *wal.Store {
	t.Helper()
	st, err := wal.Create(wal.Options{
		Dir:    dir,
		Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: testK},
		NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func makeRecords(t testing.TB, n int, seed int64) []attr.Record {
	t.Helper()
	rng := detrng.New(seed)
	dims := dataset.LandsEndSchema().Dims()
	recs := make([]attr.Record, n)
	for i := range recs {
		qi := make([]float64, dims)
		for d := range qi {
			qi[d] = rng.Float64() * 100
		}
		recs[i] = attr.Record{ID: int64(i + 1), QI: qi, Sensitive: fmt.Sprintf("s%d", i)}
	}
	return recs
}

// TestGroupCommitCoalesces: many concurrent writers must be served
// with fewer WAL commits than operations, and every write must land.
// This store runs with REAL fsyncs: coalescing emerges from commits
// being slower than arrivals, which NoSync would erase.
func TestGroupCommitCoalesces(t *testing.T) {
	st, err := wal.Create(wal.Options{
		Dir:  t.TempDir(),
		Tree: rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: testK},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	recs := makeRecords(t, writers*perWriter, 1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Insert(recs[w*perWriter+i]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats.Ops != writers*perWriter {
		t.Fatalf("acknowledged %d ops, want %d", stats.Ops, writers*perWriter)
	}
	if stats.Batches >= stats.Ops {
		t.Errorf("%d batches for %d ops: group commit never coalesced", stats.Batches, stats.Ops)
	}
	if st.Len() != writers*perWriter {
		t.Fatalf("store holds %d records, want %d", st.Len(), writers*perWriter)
	}
	// The final view reflects everything.
	v := s.View()
	if v.Len() != writers*perWriter || v.Seq() != uint64(writers*perWriter) {
		t.Fatalf("final view len=%d seq=%d", v.Len(), v.Seq())
	}
}

// TestConcurrentReadersDuringMutation is the race-detector workhorse:
// readers hammer releases, counts and evaluation on whatever epoch is
// current while writers churn the tree. Every view a reader obtains
// must be internally consistent (its own len/seq/release agree) no
// matter what the writers are doing.
func TestConcurrentReadersDuringMutation(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	seedRecs := makeRecords(t, 200, 2)
	for _, r := range seedRecs[:50] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 50 + w; i < len(seedRecs); i += 2 {
				if err := s.Insert(seedRecs[i]); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				base, err := v.Base()
				if err != nil {
					t.Errorf("epoch %d: %v", v.Epoch(), err)
					return
				}
				n := 0
				for _, p := range base {
					n += p.Size()
					if p.Size() < testK {
						t.Errorf("epoch %d: partition below k", v.Epoch())
						return
					}
				}
				if n != v.Len() {
					t.Errorf("epoch %d: release holds %d records, view says %d", v.Epoch(), n, v.Len())
					return
				}
				if _, err := v.Release(2 * testK); err != nil {
					t.Errorf("epoch %d release(2k): %v", v.Epoch(), err)
					return
				}
				if _, err := v.Count(attr.Box{{Lo: 0, Hi: 50}, {Lo: 0, Hi: 50}, {Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}); err != nil {
					t.Errorf("count: %v", err)
					return
				}
			}
		}()
	}
	// Stop readers once writers finish.
	go func() {
		defer close(stop)
		// Writers signal completion through wg; poll the op counter
		// instead of sharing another channel.
		for s.Stats().Ops < int64(len(seedRecs)) {
			if s.Err() != nil {
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsolation: a reader holding an old epoch keeps its
// exact picture while the store moves on.
func TestSnapshotIsolation(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 100, 3)
	for _, r := range recs[:40] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	old := s.View()
	oldBase, err := old.Base()
	if err != nil {
		t.Fatal(err)
	}
	oldLen, oldEpoch := old.Len(), old.Epoch()
	oldCount := 0
	for _, p := range oldBase {
		oldCount += p.Size()
	}
	for _, r := range recs[40:] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// The held view is frozen...
	if old.Len() != oldLen || old.Epoch() != oldEpoch {
		t.Fatal("held view changed under the reader")
	}
	again, err := old.Base()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range again {
		n += p.Size()
	}
	if n != oldCount {
		t.Fatalf("held view's release changed: %d records, was %d", n, oldCount)
	}
	// ...while the head moved past it.
	cur := s.View()
	if cur.Epoch() <= oldEpoch || cur.Len() != 100 {
		t.Fatalf("head epoch=%d len=%d, want epoch>%d len=100", cur.Epoch(), cur.Len(), oldEpoch)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestViewIsTheSnapshot: a view's leaves are the tree's persistent
// snapshot itself, not a conversion of it — one entry per tree leaf,
// records in the tree's own arrays, and every leaf a batch did not touch
// is the previous epoch's, box and records sharing storage. An
// incremental publish can tell which leaves changed only because of this.
func TestViewIsTheSnapshot(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 401, 11)
	for _, r := range recs[:400] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	a := s.View()
	if err := s.Insert(recs[400]); err != nil {
		t.Fatal(err)
	}
	b := s.View()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != a.Epoch()+1 {
		t.Fatalf("one insert moved the epoch from %d to %d", a.Epoch(), b.Epoch())
	}
	aLeaves, bLeaves, live := a.snap.Leaves(), b.snap.Leaves(), st.Tree().Leaves()
	if got, want := len(bLeaves), len(live); got != want {
		t.Fatalf("view holds %d leaves, tree has %d", got, want)
	}
	for j, p := range bLeaves {
		// Reads the Records field: zero-copy sharing is pinned by slice identity.
		if &p.Records[0] != &live[j].Records[0] {
			t.Fatalf("leaf %d of the view is a copy of the tree's records, not the tree's array", j)
		}
	}
	// A leaf is untouched when epoch e held a leaf with the same IDs in
	// the same order.
	ids := func(p anonmodel.Partition) string {
		var sb strings.Builder
		for i := range p.Size() {
			fmt.Fprintf(&sb, "%d,", p.Record(i).ID)
		}
		return sb.String()
	}
	before := make(map[string]int, len(aLeaves))
	for i, p := range aLeaves {
		before[ids(p)] = i
	}
	shared := 0
	for j, p := range bLeaves {
		i, untouched := before[ids(p)]
		if !untouched {
			continue
		}
		shared++
		// Reads the Records field: zero-copy sharing is pinned by slice identity.
		if &aLeaves[i].Records[0] != &p.Records[0] || &aLeaves[i].Box[0] != &p.Box[0] {
			t.Fatalf("leaf %d of epoch %d is unchanged since leaf %d of epoch %d but was copied", j, b.Epoch(), i, a.Epoch())
		}
	}
	// One insert rewrites one leaf, or splits it in two.
	if touched := len(bLeaves) - shared; touched < 1 || touched > 2 {
		t.Fatalf("one insert touched %d of %d leaves", touched, len(bLeaves))
	}
}

// TestReadYourWrites: every commit publishes before it acknowledges,
// so a view loaded after an acknowledged insert reflects it.
func TestReadYourWrites(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 30, 4)
	for i, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
		if got := s.View().Seq(); got < uint64(i+1) {
			t.Fatalf("after ack of op %d the view is at seq %d", i+1, got)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseCache: repeated releases at one granularity within an
// epoch are the same memoized slice; an epoch advance invalidates.
func TestReleaseCache(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 60, 5)
	for _, r := range recs[:40] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v := s.View()
	a, err := v.Release(2 * testK)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Release(2 * testK)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("second release at the same granularity was recomputed, not served from cache")
	}
	// A derived granularity is a set of wider windows over the base
	// release's record array, cap-limited like the base's own.
	base, err := v.Base()
	if err != nil {
		t.Fatal(err)
	}
	// Reads the Records field: zero-copy sharing is pinned by slice identity.
	if &a[0].Records[0] != &base[0].Records[0] {
		t.Fatal("derived granularity copied the base release's records")
	}
	for _, p := range append(append([]anonmodel.Partition(nil), base...), a...) {
		if cap(p.Records) != len(p.Records) {
			t.Fatalf("released partition has cap %d > len %d: an append would write into its neighbour", cap(p.Records), len(p.Records))
		}
	}
	// Invalid granularity is remembered too, not recomputed into a panic.
	if _, err := v.Release(testK - 1); err == nil {
		t.Fatal("granularity below base k accepted")
	}
	// Epoch advance: a fresh view computes a fresh release over more
	// records.
	for _, r := range recs[40:] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v2 := s.View()
	if v2.Epoch() == v.Epoch() {
		t.Fatal("epoch did not advance")
	}
	c, err := v2.Release(2 * testK)
	if err != nil {
		t.Fatal(err)
	}
	nc := 0
	for _, p := range c {
		nc += p.Size()
	}
	if nc != 60 {
		t.Fatalf("fresh epoch's release covers %d records, want 60", nc)
	}
	// The old epoch's cache still answers with the OLD state.
	a2, _ := v.Release(2 * testK)
	if &a2[0] != &a[0] {
		t.Fatal("old epoch's cache was invalidated in place")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInvalidationVsRelease races readers filling release caches
// against the committer publishing new epochs — the -race target for
// the cache path.
func TestCacheInvalidationVsRelease(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 160, 6)
	for _, r := range recs[:40] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, r := range recs[40:] {
			if err := s.Insert(r); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gran := testK * (2 + g%3)
			for i := 0; i < 200; i++ {
				v := s.View()
				ps, err := v.Release(gran)
				if err != nil {
					t.Errorf("release(%d): %v", gran, err)
					return
				}
				if err := verify.Release(ps, anonmodel.KAnonymity{K: gran}); err != nil {
					t.Errorf("epoch %d release(%d) unsafe: %v", v.Epoch(), gran, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitValidationIsPerCaller: a malformed op fails its own
// caller without failing the batch it would have shared or touching
// the store.
func TestSubmitValidationIsPerCaller(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(attr.Record{ID: 1, QI: []float64{1}}); err == nil {
		t.Fatal("wrong-dimensional record accepted")
	}
	if s.Err() != nil {
		t.Fatalf("bad op poisoned the server: %v", s.Err())
	}
	recs := makeRecords(t, testK, 7)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatalf("good op after bad one: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != testK {
		t.Fatalf("store holds %d records, want %d", st.Len(), testK)
	}
}

// TestDeleteUpdateFound: found flags flow back through group commit.
func TestDeleteUpdateFound(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 10, 8)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := s.Delete(recs[0].ID, recs[0].QI); err != nil || !found {
		t.Fatalf("delete existing: found=%v err=%v", found, err)
	}
	if found, err := s.Delete(recs[0].ID, recs[0].QI); err != nil || found {
		t.Fatalf("delete absent: found=%v err=%v", found, err)
	}
	moved := recs[1]
	moved.QI = append([]float64(nil), recs[1].QI...)
	moved.QI[0] += 1
	if found, err := s.Update(recs[1].ID, recs[1].QI, moved); err != nil || !found {
		t.Fatalf("update existing: found=%v err=%v", found, err)
	}
	if found, err := s.Update(999, recs[2].QI, recs[2]); err != nil || found {
		t.Fatalf("update absent: found=%v err=%v", found, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseVsSubmit races Close against submitters: every submitter
// either gets a durable ack or a closed error — never a hang, never a
// panic.
func TestCloseVsSubmit(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 64, 9)
	var wg sync.WaitGroup
	var acked, closed int
	var mu sync.Mutex
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.Insert(recs[i])
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				acked++
			} else {
				closed++
			}
		}(i)
	}
	s.Close()
	wg.Wait()
	if acked+closed != len(recs) {
		t.Fatalf("acked=%d closed=%d, want total %d", acked, closed, len(recs))
	}
	if int64(acked) != s.Stats().Ops {
		t.Fatalf("%d acks but %d committed ops", acked, s.Stats().Ops)
	}
	if st.Len() != acked {
		t.Fatalf("store holds %d records, %d were acknowledged", st.Len(), acked)
	}
	// Closing twice is fine; submitting after close errors cleanly.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(recs[0]); err == nil {
		t.Fatal("insert accepted after Close")
	}
}

// TestBelowKViews: views below k records refuse to release, with the
// refusal visible on every read path.
func TestBelowKViews(t *testing.T) {
	st := newStore(t, t.TempDir())
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := makeRecords(t, testK, 10)
	for _, r := range recs[:testK-1] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	v := s.View()
	if _, err := v.Base(); err == nil {
		t.Fatal("base release below k")
	}
	if _, err := v.Release(0); err == nil {
		t.Fatal("release below k")
	}
	if _, err := v.Count(attr.Box{}); err == nil {
		t.Fatal("count below k")
	}
	// One more record crosses the threshold.
	if err := s.Insert(recs[testK-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View().Base(); err != nil {
		t.Fatalf("base at k: %v", err)
	}
}
