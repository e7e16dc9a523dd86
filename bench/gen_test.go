package main

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
)

// fakeTarget is a system under test that only keeps books: which records
// are live, how many writes are in flight, and whether two writes ever
// touched one key at once. Writes pass through one lock, like a
// committer, so a stall there holds up everything behind it.
type fakeTarget struct {
	service time.Duration
	stallAt int // the write call that stalls, counted from 1; 0 = none
	stall   time.Duration

	commit sync.Mutex // the "committer"

	mu          sync.Mutex
	calls       int
	inflight    int
	maxInflight int
	busy        map[int64]bool
	overlapped  bool
	live        map[int64][]float64
}

func newFakeTarget(preload []attr.Record) *fakeTarget {
	f := &fakeTarget{busy: make(map[int64]bool), live: make(map[int64][]float64)}
	for _, r := range preload {
		f.live[r.ID] = r.QI
	}
	return f
}

// write runs one mutation through the bookkeeping; apply runs under the
// committer lock and reports whether the target record existed.
func (f *fakeTarget) write(id int64, apply func() bool) (bool, error) {
	f.mu.Lock()
	f.calls++
	call := f.calls
	f.inflight++
	f.maxInflight = max(f.maxInflight, f.inflight)
	if f.busy[id] {
		f.overlapped = true
	}
	f.busy[id] = true
	f.mu.Unlock()

	f.commit.Lock()
	if call == f.stallAt {
		time.Sleep(f.stall)
	}
	if f.service > 0 {
		time.Sleep(f.service)
	}
	f.mu.Lock()
	found := apply()
	f.mu.Unlock()
	f.commit.Unlock()

	f.mu.Lock()
	f.inflight--
	delete(f.busy, id)
	f.mu.Unlock()
	return found, nil
}

func (f *fakeTarget) insert(rec attr.Record) error {
	_, err := f.write(rec.ID, func() bool { f.live[rec.ID] = rec.QI; return true })
	return err
}

func (f *fakeTarget) update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	return f.write(id, func() bool {
		if !reflect.DeepEqual(f.live[id], oldQI) {
			return false
		}
		f.live[id] = rec.QI
		return true
	})
}

func (f *fakeTarget) remove(id int64, qi []float64) (bool, error) {
	return f.write(id, func() bool {
		if !reflect.DeepEqual(f.live[id], qi) {
			return false
		}
		delete(f.live, id)
		return true
	})
}

func testRecords(n int, seed int64) []attr.Record { return dataset.GenerateLandsEnd(n, seed) }

func testStream(t *testing.T, n int) (*opStream, []attr.Record) {
	t.Helper()
	preload := testRecords(n, 1)
	s, err := newOpStream(preload, testRecords(512, 2))
	if err != nil {
		t.Fatal(err)
	}
	return s, preload
}

func TestSameSeedSameScheduleAndStream(t *testing.T) {
	a := poissonOffsets(detrng.New(7), 2000, time.Second)
	b := poissonOffsets(detrng.New(7), 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonOffsets(detrng.New(8), 2000, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 1 s at 2000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule is not ascending")
		}
	}

	s1, _ := testStream(t, 4000)
	s2, _ := testStream(t, 4000)
	for i := 0; i < 20000; i++ {
		if o1, o2 := s1.next(), s2.next(); !reflect.DeepEqual(o1, o2) {
			t.Fatalf("op %d differs: %+v vs %+v", i, o1, o2)
		}
	}
}

// TestStreamInvariants replays a long stream against a map: every update
// and delete names a live record at its current position, the store's
// size is stationary, two ops on one key are 3·lag arrivals apart, and
// the fingerprint of the acknowledged ops is the fingerprint of the map.
func TestStreamInvariants(t *testing.T) {
	s, preload := testStream(t, 4000)
	live := make(map[int64]attr.Record, len(preload))
	for _, r := range preload {
		live[r.ID] = r
	}
	model := fingerprintOf(preload)
	lastTouch := make(map[int64]int)
	kinds := make(map[opKind]int)
	for i := 0; i < 60000; i++ {
		op := s.next()
		kinds[op.kind]++
		id := op.rec.ID
		if op.kind != opInsert {
			id = op.old.ID
			cur, ok := live[id]
			if !ok || !reflect.DeepEqual(cur.QI, op.old.QI) {
				t.Fatalf("op %d (%s) targets %d at %v, live is %v (present %v)", i, opKindNames[op.kind], id, op.old.QI, cur.QI, ok)
			}
			model.remove(op.old)
		} else if _, ok := live[id]; ok {
			t.Fatalf("op %d inserts live id %d", i, id)
		}
		if at, ok := lastTouch[id]; ok && i-at < 3*s.lag {
			t.Fatalf("ops %d and %d on key %d are closer than %d arrivals", at, i, id, 3*s.lag)
		}
		lastTouch[id] = i
		if op.kind == opDelete {
			delete(live, id)
		} else {
			live[id] = op.rec
			model.add(op.rec)
		}
		if d := len(live) - len(preload); d < 0 || d > 1 {
			t.Fatalf("store size drifted by %d after op %d", d, i)
		}
	}
	if kinds[opInsert] != 20000 || kinds[opDelete] != 20000 || kinds[opMove] != 10000 || kinds[opRedraw] != 10000 {
		t.Fatalf("mix is %v", kinds)
	}
	var recs []attr.Record
	for _, r := range live {
		recs = append(recs, r)
	}
	if got := fingerprintOf(recs); got != model {
		t.Fatalf("fingerprint of the live records %+v, of the ops %+v", got, model)
	}
	recs[0].QI = append([]float64(nil), recs[0].QI...)
	recs[0].QI[3]++
	if fingerprintOf(recs) == model {
		t.Fatal("fingerprint does not see a changed attribute")
	}
}

// TestStallInflatesFollowingSamples is the coordinated-omission check:
// one write stalls the committer for 200 ms in an open-loop phase, and
// every op that was due during the stall must carry its wait. Timing
// from the send time would show one slow sample per submitter at most.
func TestStallInflatesFollowingSamples(t *testing.T) {
	s, preload := testStream(t, 4000)
	f := newFakeTarget(preload)
	f.stallAt, f.stall = 300, 200*time.Millisecond
	res := runWrites(f, s, writePhase{name: "t", rate: 2000, dur: 600 * time.Millisecond, seed: 3}, nil)

	if n, failed := res.attempted(); failed != 0 || n != res.acked || res.firstErr != nil {
		t.Fatalf("attempted %d, failed %d, acked %d, err %v", n, failed, res.acked, res.firstErr)
	}
	lat := res.lat.all()
	slow := 0
	for _, d := range lat {
		if d > int64(50*time.Millisecond) {
			slow++
		}
	}
	// 2000/s for the 150 ms of the stall that lie beyond 50 ms: ~300 ops.
	if slow < 150 {
		t.Fatalf("only %d of %d samples carry the 200 ms stall; they are timed from send time, not due time", slow, len(lat))
	}
	if max := lat[len(lat)-1]; max < int64(180*time.Millisecond) {
		t.Fatalf("slowest sample is %v", time.Duration(max))
	}
	if f.maxInflight != maxSubmitters {
		t.Fatalf("the stall should fill all %d submitters and no more; saw %d in flight", maxSubmitters, f.maxInflight)
	}
	if f.overlapped {
		t.Fatal("two ops on one key were in flight together")
	}
	// The pacer never waits for the system: it stays on schedule through
	// the stall, and says how late it ran.
	if len(res.late) != len(res.lat) {
		t.Fatalf("%d lateness samples for %d ops", len(res.late), len(res.lat))
	}
	if p99 := res.late.quantile(0.99); p99 > float64(100*time.Millisecond) {
		t.Fatalf("generator lateness p99 %v: the pacer waited for the stalled system", time.Duration(p99))
	}
	if got, want := fingerprintOf(liveRecords(f)), fingerprintOfModel(preload, res); got != want {
		t.Fatalf("fake holds %+v, acked ops define %+v", got, want)
	}
}

func liveRecords(f *fakeTarget) []attr.Record {
	var recs []attr.Record
	for id, qi := range f.live {
		recs = append(recs, attr.Record{ID: id, QI: qi})
	}
	return recs
}

func fingerprintOfModel(preload []attr.Record, res writeResult) fingerprint {
	m := fingerprintOf(preload)
	m.merge(res.delta)
	return m
}

func TestClosedLoopKeepsSubmittersBusy(t *testing.T) {
	s, preload := testStream(t, 4000)
	f := newFakeTarget(preload)
	f.service = 50 * time.Microsecond
	res := runWrites(f, s, writePhase{name: "t", dur: 200 * time.Millisecond}, nil)
	if _, failed := res.attempted(); failed != 0 || res.acked < 100 {
		t.Fatalf("acked %d, failed %d", res.acked, failed)
	}
	if f.maxInflight != maxSubmitters || f.overlapped {
		t.Fatalf("in flight %d (cap %d), overlapped %v", f.maxInflight, maxSubmitters, f.overlapped)
	}
	if res.elapsed < 200*time.Millisecond || res.elapsed > 400*time.Millisecond {
		t.Fatalf("a 200 ms phase took %v", res.elapsed)
	}
}

func TestFoundFalseCountsAsFailed(t *testing.T) {
	s, preload := testStream(t, 4000)
	f := newFakeTarget(preload[1:]) // the first delete will miss
	res := runWrites(f, s, writePhase{name: "t", rate: 3000, dur: 50 * time.Millisecond, seed: 3}, nil)
	if c := res.classes[opDelete]; c.Failed != 1 || res.firstErr == nil {
		t.Fatalf("deletes %+v, err %v", c, res.firstErr)
	}
	if n, _ := res.attempted(); res.acked != n-1 {
		t.Fatalf("acked %d of %d", res.acked, n)
	}
}

// fakeReader answers every query with 1 and stalls where told.
type fakeReader struct {
	refreshes int
	queries   int
	stallAt   int
	stall     time.Duration
	wrongAt   int
}

func (f *fakeReader) refresh(*tracer, string, int64, int64) (session, time.Duration, error) {
	f.refreshes++
	return f, time.Microsecond, nil
}

func (f *fakeReader) query(readKind, readQuery) (float64, error) {
	f.queries++
	if f.queries == f.stallAt {
		time.Sleep(f.stall)
	}
	if f.queries == f.wrongAt {
		return 2, nil
	}
	return 1, nil
}

func (f *fakeReader) check(readKind, readQuery) (float64, bool) { return 1, true }

func TestReaderTimesFromDueTimeAndChecksAnswers(t *testing.T) {
	qs := queries{points: []readQuery{{}}, ranges: []readQuery{{}}}
	f := &fakeReader{stallAt: 100, stall: 200 * time.Millisecond, wrongAt: 201}
	ph := readPhase{name: "t", rate: 1000, dur: 500 * time.Millisecond, refreshEvery: 100, checkEvery: 100, seed: 5}
	res := runReads(f, qs, ph, nil)
	n, failed := res.attempted()
	if failed != 1 || res.firstErr == nil {
		t.Fatalf("the wrong answer to query 201 (checked: every 100th from 0) must fail once; failed %d of %d, err %v", failed, n, res.firstErr)
	}
	if f.refreshes < 4 || res.refresh.Attempted != f.refreshes || res.checked < 4 {
		t.Fatalf("%d refreshes, %d counted, %d checked", f.refreshes, res.refresh.Attempted, res.checked)
	}
	slow := 0
	for _, d := range res.lat.all() {
		if d > int64(50*time.Millisecond) {
			slow++
		}
	}
	if slow < 75 {
		t.Fatalf("only %d of %d reads carry the 200 ms stall", slow, len(res.lat))
	}
}

// TestQuietReads: every round moves the epoch once, refreshes once and
// times one loop per class; a wrong first answer of a loop is a failure.
func TestQuietReads(t *testing.T) {
	qs := queries{points: []readQuery{{}}, ranges: []readQuery{{}}}
	f := &fakeReader{wrongAt: 1}
	advanced := 0
	res := runQuietReads(f, func() error { advanced++; return nil }, qs, "t", 0, nil)
	if advanced != minReps || f.refreshes != minReps || len(res.warm) != minReps || len(res.release) != minReps {
		t.Fatalf("%d advances, %d refreshes, %d/%d samples; want %d rounds", advanced, f.refreshes, len(res.warm), len(res.release), minReps)
	}
	for k, n := range quietLoop {
		if len(res.service[k]) != minReps || res.classes[k].Attempted != minReps*n {
			t.Fatalf("class %d: %d samples, %d attempted", k, len(res.service[k]), res.classes[k].Attempted)
		}
	}
	if _, failed := res.attempted(); failed != 1 || res.checked != 3*minReps {
		t.Fatalf("failed %d (want the one wrong answer), checked %d", failed, res.checked)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{50, "max"}, {200, "p90"}, {500, "p90"}, {2000, "p99"}, {5000, "p99"}, {20000, "p99.9"}, {50000, "p99.9"}} {
		q, label := tailRule(c.n)
		if label != c.want {
			t.Errorf("tailRule(%d) = %s, want %s", c.n, label, c.want)
		}
		if label != "max" && beyond(c.n, q) < 10 {
			t.Errorf("tailRule(%d) = %s leaves %d samples beyond", c.n, label, beyond(c.n, q))
		}
	}
}

// TestSteadyIgnoresDisturbedWindows: a burst that slows a quarter of a
// phase moves the plain median's neighbourhood but not the steady
// estimate, and a tail needs ten samples beyond it in every window.
func TestSteadyIgnoresDisturbedWindows(t *testing.T) {
	var quiet, burst series
	for i := 0; i < 16000; i++ {
		d := time.Duration(1000+i%7) * time.Microsecond
		quiet.add(int64(i), d)
		if i >= 4000 && i < 8000 {
			d *= 3
		}
		burst.add(int64(15999-i), d) // added out of order: windows sort by arrival
	}
	if q, b := quiet.steady(0.5), burst.steady(0.5); q != b {
		t.Fatalf("steady median %v with a burst, %v without", b, q)
	}
	if v, q := burst.steadyTail(); q != 0.99 || v > float64(1007*time.Microsecond) {
		t.Fatalf("steady tail is p%v = %v", 100*q, time.Duration(v))
	}
	if _, q := burst[:4000].steadyTail(); q != 0.90 {
		t.Fatalf("500 samples a window support p90, got p%v", 100*q)
	}
	var few series
	for i := 0; i < 5; i++ {
		few.add(int64(i), time.Duration(i+1))
	}
	if w := few.windows(); len(w) != 1 || few.steady(0.5) != 3 {
		t.Fatalf("%d windows, steady %v", len(w), few.steady(0.5))
	}
	if (series{}).steady(0.5) != 0 || (series{}).steadyRate() != 0 {
		t.Fatal("empty series")
	}

	// 1000 acks a second with one window stalled to a tenth of the rate.
	var acks series
	at := int64(0)
	for i := 0; i < 8000; i++ {
		step := int64(time.Millisecond)
		if i >= 1000 && i < 2000 {
			step *= 10
		}
		at += step
		acks.add(at, 0)
	}
	if r := acks.steadyRate(); r < 995 || r > 1005 {
		t.Fatalf("steady rate %v, want 1000/s", r)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); got != 1.0 {
		t.Fatalf("spread %v, want (8.25-2.75)/5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer("w")
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	id := tr.id()
	tr.put(0, id, 1, "p", "child.a", at(10), at(40))
	tr.put(0, id, 1, "p", "child.b", at(30), at(60)) // overlaps a: union is 10..60
	tr.put(id, 0, 1, "p", "parent", at(0), at(100))
	totals := tr.selfTimes()
	byName := make(map[string]nameTotals)
	for _, x := range totals {
		byName[x.Name] = x
	}
	if p := byName["parent"]; p.TotalMS != 100 || p.SelfMS != 50 {
		t.Fatalf("parent %+v, want total 100 self 50", p)
	}
	if a := byName["child.a"]; a.SelfMS != 30 {
		t.Fatalf("child.a %+v", a)
	}
	if d := tr.durations("p", "child.b"); len(d) != 1 || d[0] != int64(30*time.Millisecond) {
		t.Fatalf("durations %v", d)
	}
	var none *tracer
	none.put(none.id(), 0, none.op(), "p", "x", at(0), at(1)) // a nil tracer records nothing
	none.count("p", "x", 1)
	_ = fmt.Sprint(totals)
}
