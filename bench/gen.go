package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
)

// The load generator. Everything it sends derives from the seed; the
// system under test sees only the generated operations.
//
// Running goroutines are bounded by construction: one pacer per op
// class (writes, reads). Writes are handed to a pool of parked
// submitters that spend their time blocked on the ack — they are the
// load's concurrency, which group commit needs to form a batch at all.

// maxSubmitters caps the writes in flight.
const maxSubmitters = 32

type opKind uint8

const (
	opInsert opKind = iota
	opMove          // update: QI[0]+1
	opRedraw        // update: every QI attribute drawn again
	opDelete
	numOpKinds
)

var opKindNames = [numOpKinds]string{"write.insert", "write.update_move", "write.update_redraw", "write.delete"}

// writeOp is one generated mutation.
type writeOp struct {
	idx  int
	kind opKind
	rec  attr.Record // inserted or relocated-to record
	old  attr.Record // the record before an update or delete
	seam bool        // update whose old and new position route to different shards
	due  time.Time
}

// writer is the mutation surface of a system under test.
type writer interface {
	insert(rec attr.Record) error
	update(id int64, oldQI []float64, rec attr.Record) (bool, error)
	remove(id int64, qi []float64) (bool, error)
}

// opStream is the seeded churn: arrival i is an insert, an update or a
// delete by i mod 3, so the store's size is stationary. Keys walk one
// sequence S — the first 2·lag preloaded records, then fresh records —
// and the m-th insert, update and delete touch S[2·lag+m], S[lag+m] and
// S[m]: two operations on one key are at least 3·lag arrivals apart,
// far more than the writes in flight, so they never overlap and every
// update and delete finds its record. Updates alternate between a full
// QI re-draw and QI[0]+1.
//
// next is called from one goroutine only (the pacer).
type opStream struct {
	lag     int
	pool    []attr.Record // source of fresh and re-drawn QI vectors
	freshID int64         // ID of the first fresh record
	live    []attr.Record // ring over S[m .. m+2·lag]
	n       int           // arrivals handed out
	seam    func(oldQI, newQI []float64) bool
}

// streamLag is the key spacing at full size: 3·2048 arrivals between two
// operations on one key.
const streamLag = 2048

// newOpStream starts a churn over the preloaded records. pool supplies
// QI vectors for fresh and re-drawn records; the stream cycles it.
func newOpStream(preload, pool []attr.Record) (*opStream, error) {
	lag := min(streamLag, len(preload)/4)
	if lag < maxSubmitters {
		return nil, fmt.Errorf("preload of %d records is too small for a churn lag above %d in-flight writes", len(preload), maxSubmitters)
	}
	var maxID int64
	for _, r := range preload {
		maxID = max(maxID, r.ID)
	}
	s := &opStream{lag: lag, pool: pool, freshID: maxID + 1, live: make([]attr.Record, 2*lag+1)}
	copy(s.live, preload[:2*lag])
	return s, nil
}

func (s *opStream) next() writeOp {
	i := s.n
	s.n++
	m := i / 3
	ring := len(s.live)
	op := writeOp{idx: i}
	switch i % 3 {
	case 0:
		src := s.pool[m%len(s.pool)]
		op.kind = opInsert
		op.rec = attr.Record{ID: s.freshID + int64(m), QI: src.QI, Sensitive: src.Sensitive}
		s.live[(2*s.lag+m)%ring] = op.rec
	case 1:
		slot := (s.lag + m) % ring
		op.old = s.live[slot]
		op.rec = attr.Record{ID: op.old.ID, Sensitive: op.old.Sensitive}
		if m%2 == 0 {
			op.kind = opRedraw
			// A different stride from the inserts', so a re-draw is
			// not the QI of the record inserted beside it.
			op.rec.QI = s.pool[(m*7+3)%len(s.pool)].QI
		} else {
			op.kind = opMove
			op.rec.QI = append([]float64(nil), op.old.QI...)
			op.rec.QI[0]++
		}
		if s.seam != nil {
			op.seam = s.seam(op.old.QI, op.rec.QI)
		}
		s.live[slot] = op.rec
	case 2:
		op.kind = opDelete
		op.old = s.live[m%ring]
	}
	return op
}

// fingerprint identifies a record multiset: the count, and the sum and
// xor of two independent 64-bit hashes of every record. All three are
// commutative, so submitters accumulate their own and merge.
type fingerprint struct {
	count int64
	sum   uint64
	xor   uint64
}

func (f *fingerprint) add(r attr.Record) {
	a, b := hashRecord(r)
	f.count++
	f.sum += a
	f.xor ^= b
}

func (f *fingerprint) remove(r attr.Record) {
	a, b := hashRecord(r)
	f.count--
	f.sum -= a
	f.xor ^= b
}

func (f *fingerprint) merge(o fingerprint) {
	f.count += o.count
	f.sum += o.sum
	f.xor ^= o.xor
}

func fingerprintOf(recs []attr.Record) fingerprint {
	var f fingerprint
	for _, r := range recs {
		f.add(r)
	}
	return f
}

// hashRecord mixes ID, QI and Sensitive through FNV-1a and finishes with
// two different SplitMix64 rounds.
func hashRecord(r attr.Record) (uint64, uint64) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(w uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (w & 0xff)) * prime
			w >>= 8
		}
	}
	word(uint64(r.ID))
	for _, v := range r.QI {
		word(math.Float64bits(v))
	}
	for i := 0; i < len(r.Sensitive); i++ {
		h = (h ^ uint64(r.Sensitive[i])) * prime
	}
	return mix(h), mix(h ^ 0x9e3779b97f4a7c15)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poissonOffsets is the seeded arrival schedule: offsets from the phase
// start, exponential gaps at the given rate, up to dur.
func poissonOffsets(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// classStat counts one op class: failed is an error, a shed or expired
// submission, found=false for a live key, or a partial result.
type classStat struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// writeResult is what one write phase measured.
type writeResult struct {
	lat      series // ack minus due time, by arrival index
	acks     series // when each ack came, as an offset from the phase start
	seamLat  sample // ack minus due time of the cross-seam updates
	late     sample // dispatch minus due time: the generator's own lateness
	classes  [numOpKinds]classStat
	acked    int
	elapsed  time.Duration // phase start to last ack
	delta    fingerprint   // effect of the acked ops on the record multiset
	firstErr error
}

func (r *writeResult) attempted() (n, failed int) {
	for _, c := range r.classes {
		n += c.Attempted
		failed += c.Failed
	}
	return n, failed
}

// writePhase describes one write phase. rate > 0 is open-loop: arrivals
// follow the seeded Poisson schedule whatever the system does, and each
// op is timed from its due time, so a stall is charged to every op it
// delays. rate == 0 is closed-loop saturation: the submitters are kept
// busy and an op is due when a submitter takes it; the phase ends after
// dur, or after exactly count ops if count is set.
type writePhase struct {
	name  string
	rate  float64
	dur   time.Duration
	count int
	seed  int64
}

// runWrites drives one write phase against w and returns when every
// dispatched op is acknowledged.
func runWrites(w writer, s *opStream, ph writePhase, tr *tracer) writeResult {
	open := ph.rate > 0
	var offsets []time.Duration
	var ch chan writeOp
	if open {
		offsets = poissonOffsets(detrng.New(ph.seed), ph.rate, ph.dur)
		// Sized to the number of sends: the pacer never blocks, so a
		// slow system delays acks, not arrivals.
		ch = make(chan writeOp, len(offsets))
	} else {
		ch = make(chan writeOp)
	}

	parts := make([]writeResult, maxSubmitters)
	begin := time.Now()
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(p *writeResult) {
			defer wg.Done()
			for op := range ch {
				start := time.Now()
				if !open {
					op.due = start
				}
				found, err := applyWrite(w, op)
				ack := time.Now()
				p.elapsed = ack.Sub(begin)
				c := &p.classes[op.kind]
				c.Attempted++
				if err != nil || !found {
					c.Failed++
					if p.firstErr == nil {
						if err == nil {
							err = fmt.Errorf("%s of live record %d reported found=false", opKindNames[op.kind], op.old.ID)
						}
						p.firstErr = fmt.Errorf("op %d: %w", op.idx, err)
					}
					continue
				}
				p.acked++
				p.lat.add(int64(op.idx), ack.Sub(op.due))
				p.acks.add(int64(p.elapsed), 0)
				if op.seam {
					p.seamLat.add(ack.Sub(op.due))
				}
				if op.kind != opInsert {
					p.delta.remove(op.old)
				}
				if op.kind != opDelete {
					p.delta.add(op.rec)
				}
				if tr != nil {
					id, opID := tr.id(), int64(op.idx+1)
					tr.put(0, id, opID, ph.name, "write.queue", op.due, start)
					tr.put(0, id, opID, ph.name, "write.submit", start, ack)
					tr.put(id, 0, opID, ph.name, opKindNames[op.kind], op.due, ack)
				}
			}
		}(&parts[i])
	}

	var res writeResult
	if open {
		for _, off := range offsets {
			due := begin.Add(off)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			op := s.next()
			op.due = due
			res.late.add(time.Since(due))
			ch <- op
		}
	} else if ph.count > 0 {
		for i := 0; i < ph.count; i++ {
			ch <- s.next()
		}
	} else {
		for end := begin.Add(ph.dur); time.Now().Before(end); {
			ch <- s.next()
		}
	}
	close(ch)
	wg.Wait()

	for i := range parts {
		p := &parts[i]
		res.lat = append(res.lat, p.lat...)
		res.acks = append(res.acks, p.acks...)
		res.seamLat = append(res.seamLat, p.seamLat...)
		res.acked += p.acked
		res.delta.merge(p.delta)
		for k := range res.classes {
			res.classes[k].Attempted += p.classes[k].Attempted
			res.classes[k].Failed += p.classes[k].Failed
		}
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		res.elapsed = max(res.elapsed, p.elapsed)
	}
	res.seamLat.sorted()
	res.late.sorted()
	return res
}

func applyWrite(w writer, op writeOp) (bool, error) {
	switch op.kind {
	case opInsert:
		return true, w.insert(op.rec)
	case opDelete:
		return w.remove(op.old.ID, op.old.QI)
	default:
		return w.update(op.old.ID, op.old.QI, op.rec)
	}
}

type readKind uint8

const (
	readPoint readKind = iota
	readRange
	readCount
	numReadKinds
)

var readKindNames = [numReadKinds]string{"read.point", "read.range", "read.count"}

// session is a reader's hold on one published state. check recomputes an
// answer on the same state with the linear oracle; ok=false when the
// system offers no state to recompute on.
type session interface {
	query(kind readKind, q readQuery) (float64, error)
	check(kind readKind, q readQuery) (want float64, ok bool)
}

// reader is the read surface of a system under test. refresh acquires
// the newest published state and warms a session on it — what a reader
// pays once per refresh before its first warm query. release is the
// part of that spent obtaining the audited release.
type reader interface {
	refresh(tr *tracer, phase string, parent, op int64) (s session, release time.Duration, err error)
}

// readQuery is one query; a point query carries its point and the
// degenerate box around it.
type readQuery struct {
	box   attr.Box
	point []float64
}

// queries is the seeded read workload.
type queries struct {
	points []readQuery
	ranges []readQuery
}

func (q queries) pick(kind readKind, i int) readQuery {
	if kind == readPoint {
		return q.points[i%len(q.points)]
	}
	return q.ranges[i%len(q.ranges)]
}

// readStats is what both read drivers count.
type readStats struct {
	classes  [numReadKinds]classStat
	refresh  classStat
	checked  int
	firstErr error
}

func (r *readStats) attempted() (n, failed int) {
	for _, c := range r.classes {
		n += c.Attempted
		failed += c.Failed
	}
	return n + r.refresh.Attempted, failed + r.refresh.Failed
}

func (r *readStats) fail(c *classStat, err error) {
	c.Failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// checkAnswer recomputes one answer with the linear oracle, outside any
// timed section.
func (r *readStats) checkAnswer(s session, kind readKind, q readQuery, got float64) {
	if want, ok := s.check(kind, q); ok {
		r.checked++
		if !sameCount(got, want) {
			r.fail(&r.classes[kind], fmt.Errorf("%s %v answered %v, the linear oracle %v", readKindNames[kind], q.box, got, want))
		}
	}
}

// readPhase describes the open-loop reader: one analyst issuing queries
// on a Poisson schedule beside the writers, half of them point, 30 %
// range, 20 % count, who takes the newest published state every
// refreshEvery queries.
type readPhase struct {
	name         string
	rate         float64
	dur          time.Duration
	refreshEvery int
	checkEvery   int
	seed         int64
}

// readResult is what the open-loop reader measured.
type readResult struct {
	readStats
	lat  series // completion minus due time, all classes, refresh stalls included
	late sample
}

// runReads drives the open-loop reader from the calling goroutine.
func runReads(rd reader, qs queries, ph readPhase, tr *tracer) readResult {
	var res readResult
	rng := detrng.New(ph.seed)
	offsets := poissonOffsets(rng, ph.rate, ph.dur)

	var cur session
	refresh := func(op int64) {
		res.refresh.Attempted++
		id := tr.id()
		t0 := time.Now()
		s, _, err := rd.refresh(tr, ph.name, id, op)
		if err != nil {
			res.fail(&res.refresh, fmt.Errorf("refresh: %w", err))
			return
		}
		tr.put(id, 0, op, ph.name, "read.refresh", t0, time.Now())
		cur = s
	}
	refresh(tr.op())

	begin := time.Now()
	for i, off := range offsets {
		due := begin.Add(off)
		if d := time.Until(due); d > 0 {
			// Only an arrival the reader waited for can be late through
			// the generator's fault; behind schedule, it is the system's.
			time.Sleep(d)
			res.late.add(time.Since(due))
		}
		var op int64
		if tr != nil {
			op = tr.op()
		}
		if i > 0 && i%ph.refreshEvery == 0 {
			refresh(op)
		}
		kind := readPoint
		switch p := rng.Float64(); {
		case p >= 0.80:
			kind = readCount
		case p >= 0.50:
			kind = readRange
		}
		c := &res.classes[kind]
		c.Attempted++
		if cur == nil {
			res.fail(c, fmt.Errorf("%s: no session", readKindNames[kind]))
			continue
		}
		q := qs.pick(kind, i)
		t0 := time.Now()
		got, err := cur.query(kind, q)
		t1 := time.Now()
		if err != nil {
			res.fail(c, fmt.Errorf("%s: %w", readKindNames[kind], err))
			continue
		}
		res.lat.add(int64(i), t1.Sub(due))
		if tr != nil {
			tr.put(0, 0, op, ph.name, readKindNames[kind], t0, t1)
		}
		if i%ph.checkEvery == 0 {
			res.checkAnswer(cur, kind, q, got)
		}
	}
	res.late.sorted()
	return res
}

// quietLoop is how many queries of each class one quiet round times back
// to back.
var quietLoop = [numReadKinds]int{2048, 512, 256}

// quietResult is what the quiet read stage measured.
type quietResult struct {
	readStats
	service [numReadKinds]series // mean service time of one loop, by round
	warm    series               // refresh: acquire + release + sessions
	release series               // the release part of each refresh
}

// runQuietReads is the reader with the system to itself: round after
// round, one write moves the epoch (advance), the reader refreshes, and
// then times one loop of queries per class back to back on its new
// session. Nothing else runs, so the numbers are the read path's own and
// not the two cores' contention; it runs for dur and at least minReps
// rounds.
func runQuietReads(rd reader, advance func() error, qs queries, phase string, dur time.Duration, tr *tracer) quietResult {
	var res quietResult
	begin := time.Now()
	for round := 0; round < minReps || time.Since(begin) < dur; round++ {
		res.refresh.Attempted++
		if err := advance(); err != nil {
			res.fail(&res.refresh, fmt.Errorf("advance: %w", err))
			continue
		}
		// Each refresh starts from a collected heap, like each publish
		// rep: whether a collection left over from the round before
		// runs inside it is otherwise decided per process, not per run.
		runtime.GC()
		id, op := tr.id(), tr.op()
		t0 := time.Now()
		s, rel, err := rd.refresh(tr, phase, id, op)
		if err != nil {
			res.fail(&res.refresh, fmt.Errorf("refresh: %w", err))
			continue
		}
		t1 := time.Now()
		tr.put(id, 0, op, phase, "read.refresh", t0, t1)
		res.warm.add(int64(round), t1.Sub(t0))
		res.release.add(int64(round), rel)

		for k := readPoint; k < numReadKinds; k++ {
			n, c := quietLoop[k], &res.classes[k]
			c.Attempted += n
			first := qs.pick(k, round*n)
			var got float64
			t0 := time.Now()
			for i := 0; i < n && err == nil; i++ {
				var v float64
				v, err = s.query(k, qs.pick(k, round*n+i))
				if i == 0 {
					got = v
				}
			}
			t1 := time.Now()
			if err != nil {
				res.fail(c, fmt.Errorf("%s: %w", readKindNames[k], err))
				break
			}
			res.service[k].add(int64(round), t1.Sub(t0)/time.Duration(n))
			tr.put(0, 0, op, phase, readKindNames[k]+".loop", t0, t1)
			res.checkAnswer(s, k, first, got)
		}
	}
	return res
}

// sameCount compares an answer with the oracle's: exact for the counts,
// and to rounding for estimates, whose partial sums may be taken in a
// different order.
func sameCount(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}
