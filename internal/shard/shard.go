// Package shard scales the serving layer out by space-filling-curve
// key range: a Coordinator partitions the QI domain into contiguous
// SFC key intervals (internal/sfc), runs one full serving stack —
// wal.Store, group-commit committer, epoch cache, routing accelerator
// — per interval, and routes every mutation and read by curve key.
//
// The design center is FAILURE ISOLATION, not raw fan-out. Each shard
// keeps its own circuit breaker (serve's healthy → degraded-readonly →
// recovering machine), its own WAL and fsync pipeline, and its own
// fault-injection seed; a poisoned store degrades exactly one key
// range while every sibling keeps committing and serving. The
// coordinator never averages health across shards: writes to a
// degraded range fail fast with the shard's typed error (wrapped, so
// the errors.Is taxonomy survives the boundary), writes elsewhere
// proceed untouched, and cross-shard reads either cover every range
// with fresh, healthy views or return a typed *PartialError naming
// the degraded ranges — never a silently incomplete answer.
//
// Releases compose across shards under SKALD-style reasoning: each
// shard's release is k-anonymous over its own records, records route
// to exactly one shard by a public function of their QI, and
// verify.CrossShard re-checks the joint product — range-table tiling,
// per-record key containment, global uniqueness, per-view k-anonymity,
// freshness — before any joint release leaves the coordinator. Two
// read products exist on purpose:
//
//   - Release: the live per-shard base releases laid end to end,
//     audited by CrossShard and proven as one verify.Family per epoch
//     vector. Cheap (windows of each shard's record array),
//     deterministic for a fixed shard count, but shaped by the seams.
//   - Export: the canonical global cut — every shard's records in
//     (curve key, ID) order, leaf-scanned into a family of its own.
//     Slower, but byte-identical across shard counts AND worker
//     counts: the determinism anchor offline consumers diff against.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"spatialanon/internal/attr"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/serve"
	"spatialanon/internal/sfc"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// Options parameterizes a Coordinator.
type Options struct {
	// Dir is the coordinator root; shard i lives in Dir/shard-NNNN.
	Dir string
	// Shards is the number of key ranges. Default 1.
	Shards int
	// Domain is the fixed QI routing domain, one interval per
	// dimension. It must be set explicitly: routing must be a pure
	// function of a record's QI, never of the data seen so far, or two
	// coordinators over the same configuration would route the same
	// record differently. Points outside the domain clamp to its faces
	// (the quantizer's contract), so routing still lands somewhere
	// deterministic.
	Domain attr.Box
	// Tree configures each shard's index identically.
	Tree rplustree.Config
	// Serve configures each shard's serving layer. DeadlineTicks and
	// QueueDepth apply per shard: a stalled fsync sheds and expires
	// submissions for its own key range only.
	Serve serve.Options
	// CheckpointEvery and NoSync tune each shard's store exactly as the
	// corresponding wal.Options fields.
	CheckpointEvery int
	NoSync          bool
	// Faults, when non-nil, is invoked once per shard while its store
	// options are assembled, letting the chaos harness put that shard's
	// page disk and log behind injectors (PagerFault, AppendFault) of
	// its own, derived from one parent seed.
	Faults func(shard int, o *wal.Options)
	// Preload is applied to the freshly created stores — routed,
	// batched per shard — before serving starts. Create-only.
	Preload []attr.Record
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// routeCurve is the space-filling curve keys route by. The routing
// quantizer uses the widest per-dimension grid that fits 64-bit keys.
const routeCurve = sfc.ZOrder

// shardState is one key range's serving stack plus the coordinator's
// bookkeeping about it.
type shardState struct {
	id  int
	rng verify.KeyRange
	st  *wal.Store
	srv *serve.Server
	// acked counts the mutations this shard has acknowledged durable,
	// in store-sequence units (one per op). A published view is fresh
	// iff view.Seq() >= acked: every acknowledged write is visible.
	acked atomic.Uint64
}

// Coordinator routes mutations and reads across the shard fleet. Safe
// for concurrent use by any number of goroutines; the per-shard
// serving stacks do their own serialization.
type Coordinator struct {
	opts  Options
	quant *sfc.Quantizer
	table []verify.KeyRange
	fleet []*shardState
	dims  int
	// baseK echoes the per-shard validated tree config (rplustree
	// rejects k < 2); anonylint:k-validated.
	baseK int

	partials atomic.Int64

	// memo holds what the last read computed from one epoch vector.
	memoMu sync.Mutex
	memo   *epochMemo
	closed atomic.Bool
}

// New creates a fresh coordinator: Shards new stores under Dir, the
// preload routed and applied, one serving stack per shard.
func New(opts Options) (*Coordinator, error) {
	return build(opts, true)
}

// Open reopens an existing coordinator directory: every shard's store
// runs the full audited committed-prefix recovery (wal.Open), so the
// state Open serves is deterministic in each shard's durable log —
// this is the crash-recovery path of the chaos matrix. Preload must
// be empty.
func Open(opts Options) (*Coordinator, error) {
	return build(opts, false)
}

func build(opts Options, create bool) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.Tree.Schema == nil {
		return nil, fmt.Errorf("shard: options need a tree schema")
	}
	dims := opts.Tree.Schema.Dims()
	if len(opts.Domain) != dims {
		return nil, fmt.Errorf("shard: routing domain has %d dims, schema has %d", len(opts.Domain), dims)
	}
	if !create && len(opts.Preload) > 0 {
		return nil, fmt.Errorf("shard: preload is create-only; Open recovers from the logs")
	}
	quant, err := sfc.NewQuantizer(opts.Domain, 0)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	table, err := NewTable(quant.MaxKey(), opts.Shards)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:  opts,
		quant: quant,
		table: table,
		dims:  dims,
		baseK: opts.Tree.BaseK,
	}
	preload, err := c.routePreload(opts.Preload)
	if err != nil {
		return nil, err
	}
	// The fault hook sees the shards one at a time, in order (a chaos
	// harness derives its injectors from one seed); the stores are
	// independent and are created or recovered side by side.
	wopts := make([]wal.Options, len(table))
	for i := range table {
		wopts[i] = wal.Options{
			Dir:             filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i)),
			Tree:            opts.Tree,
			CheckpointEvery: opts.CheckpointEvery,
			NoSync:          opts.NoSync,
		}
		if opts.Faults != nil {
			opts.Faults(i, &wopts[i])
		}
	}
	c.fleet = make([]*shardState, len(table))
	errs := make([]error, len(table))
	var wg sync.WaitGroup
	for i := range table {
		wg.Add(1)
		go c.startShard(i, wopts[i], preload[i], create, errs, &wg)
	}
	wg.Wait()
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		c.fleet = slices.DeleteFunc(c.fleet, func(sh *shardState) bool { return sh == nil })
		c.Close() // whatever was assembled beside the failure
		return nil, fmt.Errorf("shard: shard %d %v: %w", i, table[i], errs[i])
	}
	return c, nil
}

// startShard is buildShard as a goroutine of its own.
//
// anonylint:coordinator-only — it alone holds the new store and pager
// until serve.New hands them to the shard's committer.
func (c *Coordinator) startShard(id int, wopts wal.Options, preload []wal.Op, create bool, errs []error, wg *sync.WaitGroup) {
	defer wg.Done()
	c.fleet[id], errs[id] = c.buildShard(id, wopts, preload, create)
}

// routePreload splits the preload into per-shard op batches, keeping
// input order within each shard.
func (c *Coordinator) routePreload(recs []attr.Record) ([][]wal.Op, error) {
	out := make([][]wal.Op, len(c.table))
	for _, r := range recs {
		if len(r.QI) != c.dims {
			return nil, fmt.Errorf("shard: preload record %d has %d dims, want %d", r.ID, len(r.QI), c.dims)
		}
		si := c.route(r.QI)
		out[si] = append(out[si], wal.Op{Type: wal.TypeInsert, Rec: r})
	}
	return out, nil
}

// buildShard assembles one key range's store and serving stack.
func (c *Coordinator) buildShard(id int, wopts wal.Options, preload []wal.Op, create bool) (*shardState, error) {
	var st *wal.Store
	var err error
	if create {
		st, err = wal.Create(wopts)
	} else {
		st, err = wal.Open(wopts)
	}
	if err != nil {
		return nil, err
	}
	if len(preload) > 0 {
		if _, err := st.ApplyBatch(preload); err != nil {
			st.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	srv, err := serve.New(st, c.opts.Serve)
	if err != nil {
		st.Close()
		return nil, err
	}
	sh := &shardState{id: id, rng: c.table[id], st: st, srv: srv}
	sh.acked.Store(st.Seq())
	return sh, nil
}

// route returns the shard index owning the given QI point.
func (c *Coordinator) route(qi []float64) int {
	return lookup(c.table, c.quant.Key(routeCurve, qi))
}

// Route is the routing function for callers that account per shard:
// the index of the shard owning a QI point of the schema's width.
func (c *Coordinator) Route(qi []float64) int { return c.route(qi) }

// Insert durably inserts one record on the shard owning its QI.
func (c *Coordinator) Insert(rec attr.Record) error {
	if err := c.checkQI(rec.QI); err != nil {
		return err
	}
	sh := c.fleet[c.route(rec.QI)]
	_, err := sh.ack(true, sh.srv.Insert(rec))
	return err
}

// Delete durably deletes the record with the given id at qi, reporting
// whether it existed. qi must be the record's current QI — it selects
// the shard.
func (c *Coordinator) Delete(id int64, qi []float64) (bool, error) {
	if err := c.checkQI(qi); err != nil {
		return false, err
	}
	sh := c.fleet[c.route(qi)]
	return sh.ack(sh.srv.Delete(id, qi))
}

// Update durably relocates a record, reporting whether it existed.
// When the move stays inside one key range it is the shard's own
// atomic update. A move that crosses ranges is a delete on the old
// shard followed by an insert on the new one — two separately durable
// operations, not one atomic step: a reader between them misses the
// record (it is never duplicated), and a failed insert is compensated
// by best-effort reinsertion at the old position. The returned error
// reports which half failed.
func (c *Coordinator) Update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	if err := c.checkQI(oldQI); err != nil {
		return false, err
	}
	if err := c.checkQI(rec.QI); err != nil {
		return false, err
	}
	from := c.fleet[c.route(oldQI)]
	to := c.fleet[c.route(rec.QI)]
	if from == to {
		return from.ack(from.srv.Update(id, oldQI, rec))
	}
	found, err := from.ack(from.srv.Delete(id, oldQI))
	if err != nil {
		return false, err
	}
	if !found {
		// Mirrors rplustree.Update: a missing record is reported, not
		// inserted.
		return false, nil
	}
	if _, err := to.ack(true, to.srv.Insert(rec)); err != nil {
		// Compensate: put the record back where it durably was. If the
		// old shard degraded meanwhile the record is lost from the live
		// set until its shard recovers; both failures are reported.
		old := rec
		old.QI = oldQI
		if _, cerr := from.ack(true, from.srv.Insert(old)); cerr != nil {
			return true, fmt.Errorf("shard: cross-shard update of record %d lost both ways: insert: %w; compensation: %w", id, err, cerr)
		}
		return true, fmt.Errorf("shard: cross-shard update of record %d rolled back: %w", id, err)
	}
	return true, nil
}

// checkQI validates dimensionality before routing: routing a
// wrong-width point would index past the quantizer's domain.
func (c *Coordinator) checkQI(qi []float64) error {
	if c.closed.Load() {
		return fmt.Errorf("shard: %w", serve.ErrClosed)
	}
	if len(qi) != c.dims {
		return fmt.Errorf("shard: point has %d dims, want %d", len(qi), c.dims)
	}
	return nil
}

// ack settles one shard mutation: a success counts toward the shard's
// acknowledged sequence; every error — typed rejections (overload,
// deadline, degraded, recovering) and transient faults the shard's log
// writer could not absorb alike — surfaces immediately, wrapped with
// the shard's identity so errors.Is still matches every sentinel in
// the chain. A transient error means the store rolled the log back and
// the write did not happen, so the caller may resubmit.
func (sh *shardState) ack(found bool, err error) (bool, error) {
	if err != nil {
		return found, fmt.Errorf("shard: shard %d %v: %w", sh.id, sh.rng, err)
	}
	sh.acked.Add(1)
	return found, nil
}

// ShardHealth is one shard's position in the coordinator's health
// table.
type ShardHealth struct {
	ID    int
	Range verify.KeyRange
	// State is the shard's circuit-breaker position.
	State serve.State
	// Err is the shard's poison cause; nil while healthy.
	Err error
	// Seq is the store sequence folded into the shard's current view;
	// Acked is the sequence the shard has acknowledged to writers. A
	// fresh view has Seq >= Acked.
	Seq   uint64
	Acked uint64
}

// Health reports every shard's breaker state, freshness and poison
// cause, in shard order.
func (c *Coordinator) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.fleet))
	for i, sh := range c.fleet {
		out[i] = ShardHealth{
			ID:    sh.id,
			Range: sh.rng,
			State: sh.srv.State(),
			Err:   sh.srv.Err(),
			Seq:   sh.srv.View().Seq(),
			Acked: sh.acked.Load(),
		}
	}
	return out
}

// Recover asks one shard's server to resurrect its store in place
// (serve.Server.Recover semantics: single-flight, audited, reopens
// writes on success). Sibling shards are untouched.
func (c *Coordinator) Recover(shard int) error {
	if shard < 0 || shard >= len(c.fleet) {
		return fmt.Errorf("shard: no shard %d", shard)
	}
	sh := c.fleet[shard]
	if err := sh.srv.Recover(); err != nil {
		return fmt.Errorf("shard: shard %d %v: recover: %w", sh.id, sh.rng, err)
	}
	return nil
}

// View returns shard's current published epoch (serve.Server.View).
// It is what a single-range reader needs to mint Counter/Estimator
// sessions, which are bound to one release; cross-range reads go
// through Count, Release and Export. shard must be below NumShards.
func (c *Coordinator) View(shard int) *serve.View { return c.fleet[shard].srv.View() }

// NumShards reports the fleet size.
func (c *Coordinator) NumShards() int { return len(c.fleet) }

// Table returns a copy of the key-range table, in shard order.
func (c *Coordinator) Table() []verify.KeyRange {
	out := make([]verify.KeyRange, len(c.table))
	copy(out, c.table)
	return out
}

// Quantizer returns the fixed routing quantizer (shared, read-only).
func (c *Coordinator) Quantizer() *sfc.Quantizer { return c.quant }

// Curve returns the routing curve.
func (c *Coordinator) Curve() sfc.Curve { return routeCurve }

// ShardStats pairs one shard's serving counters with its identity.
type ShardStats struct {
	ID    int
	Range verify.KeyRange
	Serve serve.Stats
}

// Stats reports per-shard serving counters plus two fleet-wide ones:
// cross-shard reads that returned partial results, and the transient
// faults absorbed by the shards' log writers (the sum of the per-shard
// serve.Stats.Retries). The coordinator retries nothing itself: what a
// writer cannot absorb surfaces to the caller, like every shed.
func (c *Coordinator) Stats() (perShard []ShardStats, partials, retries int64) {
	perShard = make([]ShardStats, len(c.fleet))
	for i, sh := range c.fleet {
		perShard[i] = ShardStats{ID: sh.id, Range: sh.rng, Serve: sh.srv.Stats()}
		retries += perShard[i].Serve.Retries
	}
	return perShard, c.partials.Load(), retries
}

// Close stops every shard's serving stack, then closes every store.
// All shards are closed even if some fail; the errors are joined.
func (c *Coordinator) Close() error {
	c.closed.Store(true)
	var errs []error
	for _, sh := range c.fleet {
		if err := sh.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard: shard %d %v: close: %w", sh.id, sh.rng, err))
		}
	}
	for _, sh := range c.fleet {
		if err := sh.st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard: shard %d %v: close store: %w", sh.id, sh.rng, err))
		}
	}
	return errors.Join(errs...)
}
