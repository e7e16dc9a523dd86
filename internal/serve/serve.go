// Package serve is the concurrent serving layer over the durable
// store: the machinery that turns internal/wal's single-goroutine,
// fsync-per-operation Store into a front end that can take writes
// from many goroutines and serve reads to many more, concurrently.
//
// Three coordinated layers (DESIGN.md "Serving & concurrency
// control"):
//
//   - Group commit. All mutations funnel into one committer
//     goroutine, which coalesces whatever has queued — up to
//     MaxBatch — into a single multi-record WAL frame committed with
//     ONE fsync (wal.Store.ApplyBatch). Callers block until their
//     batch's frame is durable, so the durability contract is
//     unchanged: an acknowledged write survives any crash. N
//     concurrent writers pay ~N/batch fsyncs instead of N.
//
//   - Snapshot-isolated reads. After each applied batch the committer
//     publishes an immutable, epoch-stamped View around the tree's
//     persistent snapshot (rplustree.Tree.Snapshot): every subtree the
//     batch did not touch is shared with the previous epoch and no
//     record is copied, so publishing costs the batch, not the store.
//     Readers load the current View through one atomic pointer and
//     run releases, range counts and query evaluation against it with
//     no lock shared with the writer; a reader holding an old epoch
//     keeps a consistent picture until it drops it.
//
//   - Release cache. Each View holds one verify.Family — the audited
//     base release and every derived granularity k1 — built lazily by
//     the first reader that asks, so repeated releases at the same
//     granularity are O(1) after the first. The cache key is
//     effectively (epoch, k1) and epoch advance is the invalidation:
//     a new View starts cold, old epochs age out when their readers
//     let go. The family is the only source of releases, so every one
//     a reader can observe is audited (verify's k-anonymity and
//     Lemma-1 k-boundness checks) once per epoch, before first use.
//
//   - Graceful degradation and self-healing. Admission control bounds
//     the submission queue (ErrOverloaded instead of unbounded
//     blocking) and expires submissions by group-commit ticks
//     (ErrDeadlineExceeded). Transient log faults are absorbed below
//     this layer, by the store's log writer; one that outlasts its
//     budget fails only its own batch (the append rolled the log back
//     and left seq untouched, so resubmitting is safe). A fault that
//     poisons the store trips a circuit breaker: healthy →
//     degraded-readonly (reads keep serving the last audited epoch;
//     writes get typed errors) → recovering (Server.Recover re-runs
//     the audited committed-prefix recovery on the committer
//     goroutine) → healthy again, all in-process. A background scrubber walks the pager
//     pages between batches, quarantining rot and rewriting the live
//     checkpoint from the audited tree before the rot is ever needed.
//
// The store itself stays single-goroutine: only the committer touches
// it (and, through it, the pager), which is the same coordinator
// confinement discipline the parallel loaders follow.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spatialanon/internal/attr"
	"spatialanon/internal/wal"
)

// Options parameterizes a Server.
type Options struct {
	// MaxBatch caps how many queued mutations one group commit
	// coalesces into a single WAL frame. Default 64.
	MaxBatch int
	// QueueDepth bounds the submission queue. A full queue rejects with
	// ErrOverloaded instead of blocking, so a slow fsync can never
	// wedge every caller and queue memory is bounded by construction.
	// Default 4×MaxBatch.
	QueueDepth int
	// DeadlineTicks expires a queued submission that has waited through
	// more than this many group commits, rejecting it with
	// ErrDeadlineExceeded at dequeue. The clock is the commit tick, not
	// wall time, so expiry is deterministic for a given interleaving.
	// 0 disables deadlines.
	DeadlineTicks int
	// ScrubEvery runs a background scrub of the store's pages every N
	// group commits, on the committer between batches. 0 disables
	// scrubbing.
	ScrubEvery int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.MaxBatch
	}
	return o
}

// Stats counts what the serving layer has done since New.
type Stats struct {
	// Ops is the number of acknowledged mutations.
	Ops int64
	// Batches is the number of group commits (= WAL frames = fsyncs
	// spent on mutations).
	Batches int64
	// MaxBatch is the largest batch committed so far.
	MaxBatch int64
	// Epoch is the current published epoch.
	Epoch uint64
	// State is the circuit-breaker state at the time of the call.
	State State
	// Shed counts submissions rejected with ErrOverloaded.
	Shed int64
	// Expired counts submissions rejected with ErrDeadlineExceeded.
	Expired int64
	// Retries counts the extra physical write attempts the
	// store's log writer spent absorbing transient faults
	// (wal.Store.Retries, sampled at each commit; 0 when every frame
	// landed first try).
	Retries int64
	// Recoveries counts successful Server.Recover resurrections.
	Recoveries int64
	// RecoverAttempts counts store recovery attempts, successful or
	// not. Concurrent Recover callers coalesce into one attempt
	// (single-flight), so this stays well below the caller count under
	// a recovery storm.
	RecoverAttempts int64
	// ScrubScans, ScrubCorrupt and ScrubRepaired count background scrub
	// passes, corrupt pages detected, and pages repaired (quarantined or
	// rewritten from the live tree).
	ScrubScans    int64
	ScrubCorrupt  int64
	ScrubRepaired int64
	// Checkpoint is what the store's checkpoints have cost so far —
	// how many, how many rewrote every leaf, leaf and node objects and
	// bytes written, pages freed (wal.Store.CheckpointStats, sampled at each commit
	// like Retries).
	Checkpoint wal.CheckpointStats
}

// result is what a blocked submitter receives when its batch commits.
type result struct {
	found bool
	err   error
}

// request is one queued mutation and its completion channel. tick is
// the commit tick at enqueue; the committer compares it against the
// current tick at dequeue to expire submissions that waited too long.
type request struct {
	op   wal.Op
	done chan result
	tick uint64
}

// recoverReq asks the committer to run a recovery on its own
// goroutine, preserving the store's single-goroutine confinement.
type recoverReq struct {
	done chan error
}

// Server is the concurrent front end. Create one with New, mutate
// with Insert/Delete/Update from any number of goroutines, read with
// View from any number more, and Close it before closing the
// underlying store.
type Server struct {
	st   *wal.Store
	opts Options
	dims int
	// baseK is the store's base anonymity parameter, copied from the
	// already-validated tree config (rplustree.Config rejects k < 2);
	// anonylint:k-validated.
	baseK int

	reqCh     chan *request
	recoverCh chan *recoverReq
	done      chan struct{}

	mu     sync.RWMutex // guards closed (submit send vs Close)
	closed bool

	cur    atomic.Pointer[View]
	failed atomic.Pointer[poison]
	state  atomic.Int32 // State; the circuit-breaker position
	// tick is the group-commit clock: one increment per committed (or
	// degraded-drained) batch. Deadlines are measured against it, so
	// "too slow" is a deterministic property of the interleaving, never
	// of wall time (detrand-safe).
	tick atomic.Uint64

	// Committer-owned state (no locks: single goroutine).
	epoch      uint64
	sinceScrub int
	opsBuf     []wal.Op

	ops        atomic.Int64
	batches    atomic.Int64
	maxBatch   atomic.Int64
	shed       atomic.Int64
	expired    atomic.Int64
	retries    atomic.Int64
	ckpt       atomic.Pointer[wal.CheckpointStats]
	recoveries atomic.Int64
	// recoverAttempts counts st.Recover invocations — the single-flight
	// regression signal: N concurrent Recover callers must cost one
	// attempt, not N.
	recoverAttempts atomic.Int64
	scrubScans      atomic.Int64
	scrubCorrupt    atomic.Int64
	scrubRepaired   atomic.Int64
}

// poison boxes the error that stopped the serving layer (an epoch
// audit failure or a dead store).
type poison struct{ err error }

// New wraps an open, audited store. The server immediately publishes
// epoch 1 — the recovered state — so readers always have a View, and
// then starts the committer. The store must not be used directly
// while the server is live: the committer owns it.
func New(st *wal.Store, opts Options) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("serve: store is poisoned: %w", err)
	}
	opts = opts.withDefaults()
	cfg := st.Tree().Config()
	s := &Server{
		st:        st,
		opts:      opts,
		dims:      cfg.Schema.Dims(),
		baseK:     cfg.BaseK,
		reqCh:     make(chan *request, opts.QueueDepth),
		recoverCh: make(chan *recoverReq),
		done:      make(chan struct{}),
	}
	s.sampleStore()
	s.publish()
	go s.commitLoop()
	return s, nil
}

// Insert durably inserts one record. It blocks until the record's
// group commit is on disk.
func (s *Server) Insert(rec attr.Record) error {
	_, err := s.submit(wal.Op{Type: wal.TypeInsert, Rec: rec})
	return err
}

// Delete durably deletes the record with the given id at qi,
// reporting whether it existed.
func (s *Server) Delete(id int64, qi []float64) (bool, error) {
	return s.submit(wal.Op{Type: wal.TypeDelete, ID: id, OldQI: qi})
}

// Update durably relocates a record, reporting whether it existed.
func (s *Server) Update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	return s.submit(wal.Op{Type: wal.TypeUpdate, ID: id, OldQI: oldQI, Rec: rec})
}

// submit validates on the calling goroutine (a bad op must fail its
// own caller, never the batch it would have shared), applies
// admission control, enqueues WITHOUT blocking, and waits for the
// commit result. The non-blocking enqueue is the load-shedding point:
// a full queue means the committer is behind (a slow fsync, a burst),
// and the honest answer is an immediate typed ErrOverloaded the
// caller can retry, not an unbounded line of parked goroutines.
func (s *Server) submit(op wal.Op) (bool, error) {
	if err := wal.ValidateOp(s.dims, op); err != nil {
		return false, err
	}
	if err := s.admit(); err != nil {
		return false, err
	}
	r := &request{op: op, done: make(chan result, 1), tick: s.tick.Load()}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return false, ErrClosed
	}
	select {
	case s.reqCh <- r:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.shed.Add(1)
		return false, ErrOverloaded
	}
	res := <-r.done
	return res.found, res.err
}

// admit is the write-side circuit breaker: degraded and recovering
// states refuse new mutations up front with their typed errors (the
// degraded one is the recorded poison, which wraps ErrDegraded and is
// stored before the state flips). Reads are never gated — they go
// through the published View.
func (s *Server) admit() error {
	if State(s.state.Load()) == StateRecovering {
		return ErrRecovering
	}
	return s.Err()
}

// commitLoop is the committer: the one goroutine that touches the
// store. It blocks for the first queued request, drains whatever else
// has queued up to MaxBatch without waiting (group commit needs no
// timer — the batch is "everyone who arrived while the last fsync
// ran"), commits the batch as one frame, publishes, and acknowledges.
//
// anonylint:coordinator-only — New hands the store to this goroutine
// and nothing else reaches its pager while the server is live.
func (s *Server) commitLoop() {
	defer close(s.done)
	batch := make([]*request, 0, s.opts.MaxBatch)
	for {
		var r *request
		var ok bool
		select {
		case rr := <-s.recoverCh:
			s.doRecover(rr)
			continue
		case r, ok = <-s.reqCh:
		}
		if !ok {
			break
		}
		batch = append(batch[:0], r)
		chClosed := false
	drain:
		for len(batch) < s.opts.MaxBatch {
			select {
			case r2, ok2 := <-s.reqCh:
				if !ok2 {
					chClosed = true
					break drain
				}
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		s.commit(batch)
		s.tick.Add(1)
		if chClosed {
			break
		}
		s.maybeScrub()
		// Yield once so the submitters just woken by the acks get to
		// re-enqueue before the next drain: without this, on a loaded
		// machine the committer can win the race back to reqCh every
		// time and batches collapse toward one op per fsync.
		runtime.Gosched()
	}
}

// commit applies one batch as a single durable frame, publishes the
// next epoch, then wakes the submitters. Publishing before
// acknowledging gives read-your-writes: by the time a caller unblocks,
// the current View reflects its write — which is also what lets the
// shard coordinator call a view fresh iff view.Seq() >= acked.
//
// Failure handling, in order: a degraded server drains the batch with
// the degraded error without touching the store; expired submissions
// are rejected before the store sees them; a transient store fault —
// one the log writer could not absorb within its retry budget, which
// by the store's contract left seq unadvanced and the log rolled back
// — fails this batch only; a fault that poisoned the store trips the
// breaker to degraded-readonly.
func (s *Server) commit(batch []*request) {
	if p := s.failed.Load(); p != nil {
		for _, r := range batch {
			r.done <- result{err: p.err}
		}
		return
	}
	s.opsBuf = s.opsBuf[:0]
	live := batch[:0]
	now := s.tick.Load()
	for _, r := range batch {
		if s.opts.DeadlineTicks > 0 && now-r.tick > uint64(s.opts.DeadlineTicks) {
			s.expired.Add(1)
			r.done <- result{err: ErrDeadlineExceeded}
			continue
		}
		live = append(live, r)
		s.opsBuf = append(s.opsBuf, r.op)
	}
	if len(live) == 0 {
		return
	}
	found, err := s.st.ApplyBatch(s.opsBuf)
	s.sampleStore()
	if err == nil {
		s.ops.Add(int64(len(live)))
		s.batches.Add(1)
		if n := int64(len(live)); n > s.maxBatch.Load() {
			s.maxBatch.Store(n)
		}
		s.publish()
	} else if s.st.Err() != nil {
		// The store is poisoned: trip the breaker. Readers keep the
		// last audited epoch; writers get the typed degraded error
		// until a Recover succeeds.
		err = s.degrade(err)
	}
	// A transient error the writer did not absorb (a write past retry.Budget
	// tries, or an fsync, never retried) with the store healthy falls through
	// here: this batch's callers fail with it (their writes did NOT happen and
	// may be resubmitted), and the server keeps serving.
	for i, r := range live {
		r.done <- result{found: err == nil && found[i], err: err}
	}
}

// degrade trips the circuit breaker: record the cause (wrapping
// ErrDegraded, with the store's ErrPoisoned chain inside), enter
// degraded-readonly and return the recorded error.
func (s *Server) degrade(cause error) error {
	err := fmt.Errorf("%w: %w", ErrDegraded, cause)
	s.failed.Store(&poison{err})
	s.state.Store(int32(StateDegraded))
	return err
}

// maybeScrub runs the background scrubber when its budget is due:
// committer-only, between batches, so it shares the store safely with
// the write path. Scrub findings are repaired by the store (rotten
// garbage pages quarantined, live checkpoint rewritten from the
// audited tree); a scrub that poisons the store trips the breaker
// like any other store failure.
func (s *Server) maybeScrub() {
	if s.opts.ScrubEvery <= 0 || s.failed.Load() != nil {
		return
	}
	s.sinceScrub++
	if s.sinceScrub < s.opts.ScrubEvery {
		return
	}
	s.sinceScrub = 0
	rep, err := s.st.Scrub()
	s.scrubScans.Add(1)
	s.scrubCorrupt.Add(int64(len(rep.Corrupt)))
	if err == nil {
		// Every corrupt page found was repaired: freed if garbage,
		// rewritten from the live tree if part of the checkpoint.
		s.scrubRepaired.Add(int64(len(rep.Corrupt)))
		return
	}
	s.scrubRepaired.Add(int64(rep.Freed))
	if s.st.Err() != nil {
		s.degrade(err)
	}
}

// doRecover runs on the committer goroutine: it owns the store, so
// recovery routes through it like every other store access. Queued
// submissions are drained with ErrRecovering — they were admitted
// before the breaker tripped and must not wait on an uncertain
// outcome — then the store is rebuilt and, on success, a fresh epoch
// is published before writes reopen.
//
// Recovery is single-flight: every Recover caller blocked on
// recoverCh — now, or while the store is rebuilding — joins the
// attempt in flight and shares its outcome. Without coalescing, N
// callers racing into a still-failing store would each re-run
// st.Recover and re-drain the queue, turning one failure into N
// sequential recovery storms.
func (s *Server) doRecover(rr *recoverReq) {
	waiters := s.gatherRecoverWaiters([]*recoverReq{rr})
	if s.failed.Load() == nil {
		// Healthy; nothing to recover. Callers queued behind a
		// successful attempt land here and learn it already won.
		for _, w := range waiters {
			w.done <- nil
		}
		return
	}
	s.recoverAttempts.Add(1)
	s.state.Store(int32(StateRecovering))
	s.drainQueued(ErrRecovering)
	err := s.st.Recover()
	// Callers that arrived while the store was rebuilding were blocked
	// on the unbuffered recoverCh; rendezvous with them now so they
	// share this attempt's verdict instead of starting their own.
	waiters = s.gatherRecoverWaiters(waiters)
	if err != nil {
		// Still down: back to degraded-readonly on the last audited
		// epoch. The original poison stays as the cause.
		s.state.Store(int32(StateDegraded))
		for _, w := range waiters {
			w.done <- err
		}
		return
	}
	// The store recovered through the full audited reopen path; its
	// tree is new, so this publish snapshots it from scratch.
	s.publish()
	s.failed.Store(nil)
	s.recoveries.Add(1)
	s.state.Store(int32(StateHealthy))
	for _, w := range waiters {
		w.done <- nil
	}
}

// gatherRecoverWaiters collects every Recover caller currently parked
// on the unbuffered recoverCh. Each receive unblocks one sender, so
// the loop drains exactly the callers that were already committed to
// this attempt; it never waits for new ones.
func (s *Server) gatherRecoverWaiters(ws []*recoverReq) []*recoverReq {
	for {
		select {
		case w := <-s.recoverCh:
			ws = append(ws, w)
		default:
			return ws
		}
	}
}

// drainQueued empties the submission queue, failing every queued
// request with err.
func (s *Server) drainQueued(err error) {
	for {
		select {
		case r, ok := <-s.reqCh:
			if !ok {
				return
			}
			r.done <- result{err: err}
		default:
			return
		}
	}
}

// Recover asks the committer to resurrect a degraded server in
// place: re-run the store's committed-prefix recovery and audit, and
// on success republish a fresh epoch and reopen writes. Safe from any
// goroutine; returns nil when the server is healthy afterwards (a
// no-op on an already-healthy server), the recovery failure when the
// store stayed down (the server remains degraded-readonly), or
// ErrClosed.
func (s *Server) Recover() error {
	rr := &recoverReq{done: make(chan error, 1)}
	select {
	case s.recoverCh <- rr:
	case <-s.done:
		return ErrClosed
	}
	select {
	case err := <-rr.done:
		return err
	case <-s.done:
		// The committer exited while we waited; it replies before
		// exiting if it took the request, so prefer a queued verdict.
		select {
		case err := <-rr.done:
			return err
		default:
			return ErrClosed
		}
	}
}

// State reports the circuit-breaker position; safe from any
// goroutine.
func (s *Server) State() State { return State(s.state.Load()) }

// View returns the current published epoch's immutable view. The
// returned View never changes; load it once per logical read to get
// snapshot isolation, or repeatedly to follow the epoch head.
func (s *Server) View() *View {
	return s.cur.Load()
}

// sampleStore copies the store's own counters to where Stats can read
// them from any goroutine. Only the committer (and New, before it
// starts) calls it: the store is not safe for concurrent use.
func (s *Server) sampleStore() {
	s.retries.Store(s.st.Retries())
	cs := s.st.CheckpointStats()
	if old := s.ckpt.Load(); old == nil || *old != cs {
		s.ckpt.Store(&cs)
	}
}

// Stats reports serving counters; safe from any goroutine.
func (s *Server) Stats() Stats {
	return Stats{
		Ops:             s.ops.Load(),
		Batches:         s.batches.Load(),
		MaxBatch:        s.maxBatch.Load(),
		Epoch:           s.cur.Load().Epoch(),
		State:           State(s.state.Load()),
		Shed:            s.shed.Load(),
		Expired:         s.expired.Load(),
		Retries:         s.retries.Load(),
		Recoveries:      s.recoveries.Load(),
		RecoverAttempts: s.recoverAttempts.Load(),
		ScrubScans:      s.scrubScans.Load(),
		ScrubCorrupt:    s.scrubCorrupt.Load(),
		ScrubRepaired:   s.scrubRepaired.Load(),
		Checkpoint:      *s.ckpt.Load(),
	}
}

// Err reports why the serving layer stopped, or nil while healthy.
func (s *Server) Err() error {
	if p := s.failed.Load(); p != nil {
		return p.err
	}
	return nil
}

// Close stops accepting mutations, commits everything already queued,
// publishes the final epoch and stops the committer. The underlying
// store is NOT closed — the caller owns it (checkpoint it, then close
// it). Close is idempotent and safe to race with submitters: a late
// submitter gets a "server is closed" error instead of a hang.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.reqCh)
	}
	s.mu.Unlock()
	<-s.done
	return s.Err()
}
