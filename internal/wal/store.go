package wal

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// File names inside a store directory.
const (
	logName   = "wal.log"
	tmpName   = "wal.tmp"
	pagesName = "pages.db"
)

// Options parameterizes a durable Store.
type Options struct {
	// Dir is the store directory; it holds wal.log and pages.db.
	Dir string
	// FS is the file system the store lives in; nil means the operating
	// system's directory at Dir. Dir is unused when FS is set.
	FS FS
	// Tree configures the underlying index.
	Tree rplustree.Config
	// CheckpointEvery checkpoints automatically after this many logged
	// operations since the last checkpoint; 0 means checkpoints happen
	// only when Checkpoint is called.
	CheckpointEvery int
	// PageSize is the pager page size for checkpoint pages.
	// Default 4096.
	PageSize int
	// PoolPages is the pager pool capacity. Default 256: recovery merges the
	// live checkpoints' page runs and rereads pages unless one per run stays.
	PoolPages int
	// NoSync makes Sync of every file the store opens — log, page file,
	// directory — do nothing (Options.open), whichever FS holds them; every
	// Sync is still called.
	NoSync bool
	// PagerFault, when non-nil, wraps the page file's disk in a failing
	// device (fault.Injector.Disk, fault.Crash.Disk); one fault.Crash
	// wrapping both this and AppendFault shares its durable-operation
	// clock between page write-backs and log appends.
	PagerFault func(pager.Disk) pager.Disk
	// AppendFault, when non-nil, wraps every log file the store opens in
	// a failing device (fault.Injector.Log, fault.Crash.Log).
	AppendFault func(pager.File) pager.File
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.PoolPages == 0 {
		o.PoolPages = 256
	}
	if o.FS == nil {
		o.FS = osFS(o.Dir)
	}
	return o
}

// open opens name in the store's FS. Every file the store touches is
// opened here; under NoSync its Sync does nothing.
func (o Options) open(name string, flag int) (pager.File, error) {
	f, err := o.FS.OpenFile(name, flag)
	switch {
	case err != nil:
		return nil, err
	case o.NoSync:
		return unsynced{f}, nil
	}
	return f, nil
}

// unsynced is a file of a NoSync store.
type unsynced struct{ pager.File }

func (unsynced) Sync() error { return nil }

// FS is the file system a store lives in: every file it touches is opened,
// renamed and removed through it, by name inside the store directory. ""
// names the directory itself, whose Sync makes a rename in it durable.
type FS interface {
	OpenFile(name string, flag int) (pager.File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
}

// osFS is the operating system's directory at a path, made by the first create.
type osFS string

func (d osFS) OpenFile(name string, flag int) (pager.File, error) {
	if flag&os.O_CREATE != 0 {
		if err := d.mkdir(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(d.path(name), flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// mkdir makes d and its missing parents, syncing the parent of each
// directory it makes, so a new store's directory survives a power loss
// (under NoSync too: that governs a store's files). Like os.MkdirAll it
// only stats a directory that exists: a checkpoint's wal.tmp syncs nothing.
func (d osFS) mkdir() error {
	if _, err := os.Stat(string(d)); err == nil {
		return nil
	}
	parent := osFS(filepath.Dir(string(d)))
	if parent != d {
		if err := parent.mkdir(); err != nil {
			return err
		}
	}
	if err := os.Mkdir(string(d), 0o755); err != nil && !os.IsExist(err) {
		return err
	}
	f, err := os.Open(string(parent))
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (d osFS) Rename(from, to string) error { return os.Rename(d.path(from), d.path(to)) }

func (d osFS) Remove(name string) error { return os.Remove(d.path(name)) }

func (d osFS) path(name string) string { return filepath.Join(string(d), name) }

// RecoveryStats describes what it took to reopen a store.
type RecoveryStats struct {
	// CheckpointSeq is the sequence number folded into the checkpoint
	// the recovery started from.
	CheckpointSeq uint64
	// Replayed is the number of committed log-tail operations applied
	// on top of the checkpoint.
	Replayed int
	// TornBytes is the length of the discarded uncommitted tail.
	TornBytes int
	// SnapshotPages and SnapshotBytes size the checkpoint image read:
	// the live pages (leaf pages and node pages) and the bytes in them
	// that a reference names — leaf and node objects, whole and deltas.
	SnapshotPages int
	SnapshotBytes int
	// LogBytes is the size of the log image scanned.
	LogBytes int
	// PagesFreed counts disk pages leaked by an interrupted checkpoint
	// and reclaimed during recovery.
	PagesFreed int
	// PagerReads/PagerWrites are the pager I/O counters accumulated
	// during recovery.
	PagerReads  int64
	PagerWrites int64
}

// Store is a crash-consistent anonymizing index: an rplustree whose
// maintenance operations are write-ahead logged and whose state is
// periodically checkpointed, with audited recovery. Not safe for
// concurrent use; internal/serve wraps a Store in a group-commit
// front end that serializes all access through one committer
// goroutine and serves readers from immutable snapshots.
type Store struct {
	opts      Options
	tree      *rplustree.Tree
	w         *Writer
	pg        *pager.Pager
	seq       uint64
	sinceCkpt int
	// live is the ascending set of pages the published checkpoint refers
	// to — leaf pages and node pages — and imageBytes the bytes of them
	// that its objects occupy (checkpoint.go).
	live       []pager.PageID
	imageBytes int64
	ckpt       CheckpointStats
	// retired holds the retry counts of log writers already closed (a
	// checkpoint swaps the writer, Recover reopens it).
	retired  int64
	recovery RecoveryStats
	dead     error
	// divergent records that the live tree no longer matches the
	// committed log (a committed op failed to apply). Recover must then
	// rebuild from disk; the in-memory tree has forfeited its authority.
	divergent bool
}

// Create initializes a new store in opts.Dir (created if absent). The
// directory must not already contain a store. The empty tree is
// checkpointed immediately, so a crash at any later point — including
// before the first operation — recovers cleanly.
func Create(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if f, err := opts.open(logName, os.O_RDONLY); err == nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s exists; use Open", filepath.Join(opts.Dir, logName))
	}
	tree, err := rplustree.New(opts.Tree)
	if err != nil {
		return nil, err
	}
	pg, err := openPager(opts, os.O_CREATE|os.O_TRUNC, pager.CreateDiskFile)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, tree: tree, pg: pg}
	if err := s.writeCheckpoint(&pageStream{pg: pg}, true); err != nil {
		pg.Close()
		return nil, err
	}
	if err := s.audit(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openPager opens the store's page file with flag added to O_RDWR — with
// pager.CreateDiskFile (O_CREATE|O_TRUNC) or pager.OpenDiskFile — behind
// opts.PagerFault and a pool. The pool reuses freed slots: checkpoints
// free about as many pages as they allocate, forever.
func openPager(opts Options, flag int, diskFile func(pager.File, int) (*pager.DiskFile, error)) (*pager.Pager, error) {
	f, err := opts.open(pagesName, os.O_RDWR|flag)
	if err != nil {
		return nil, err
	}
	d, err := diskFile(f, opts.PageSize)
	if err != nil {
		return nil, err
	}
	var disk pager.Disk = d
	if opts.PagerFault != nil {
		disk = opts.PagerFault(d)
	}
	pg, err := pager.NewWithDisk(opts.PageSize, opts.PoolPages, disk)
	if err == nil {
		err = pg.ReuseFreed()
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return pg, nil
}

// Open recovers a store from opts.Dir: load the last complete
// checkpoint, replay the committed log tail, discard any torn tail,
// reclaim pages leaked by an interrupted checkpoint — and then audit
// the result with internal/verify before the store will publish
// anything. RecoveryStats reports what the reopen cost.
func Open(opts Options) (_ *Store, err error) {
	opts = opts.withDefaults()
	f, err := opts.open(logName, os.O_RDWR|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("wal: no store: %w", err)
	}
	// The one handle on the log: read here, truncated to its committed
	// prefix below, appended to by the writer.
	s := &Store{opts: opts, w: newWriter(f, 0, opts)}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	img, err := io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		return nil, err
	}
	// A wal.tmp is the residue of a checkpoint that died before its
	// atomic rename; the checkpoint never happened.
	opts.FS.Remove(tmpName)

	if s.pg, err = openPager(opts, 0, pager.OpenDiskFile); err != nil {
		return nil, err
	}
	s.recovery.LogBytes = len(img)
	if err := s.recover(img); err != nil {
		return nil, err
	}
	// Truncate the uncommitted tail so new appends extend the
	// committed prefix instead of hiding behind a torn frame.
	s.w.size = int64(len(img) - s.recovery.TornBytes)
	if err := f.Truncate(s.w.size); err != nil {
		return nil, err
	}
	if err := s.audit(); err != nil {
		return nil, err
	}
	st := s.pg.Stats()
	s.recovery.PagerReads, s.recovery.PagerWrites = st.Reads, st.Writes
	return s, nil
}

// recover rebuilds the tree from the log image: manifest first, then
// the committed tail.
func (s *Store) recover(img []byte) error {
	sc := NewScanner(img)
	first, ok := sc.Next()
	if !ok {
		return fmt.Errorf("wal: log has no committed checkpoint manifest")
	}
	rec, err := Decode(first)
	if err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	if rec.Type != TypeCheckpointEnd || rec.Manifest == nil {
		return fmt.Errorf("wal: log starts with %v, want checkpoint-end", rec.Type)
	}
	m := rec.Manifest

	if err := s.loadCheckpoint(m); err != nil {
		return err
	}
	s.seq = m.Seq
	s.recovery.CheckpointSeq = m.Seq
	s.recovery.SnapshotPages = len(s.live)
	s.recovery.SnapshotBytes = int(s.imageBytes)

	// Replay the committed tail.
	for {
		payload, ok := sc.Next()
		if !ok {
			break
		}
		rec, err := Decode(payload)
		if err != nil {
			return fmt.Errorf("wal: replaying op %d: %w", s.seq+1, err)
		}
		if rec.Type == TypeCheckpointBegin {
			continue // intent marker; carries no state
		}
		if rec.Type != TypeBatch {
			return fmt.Errorf("wal: %v record in log tail", rec.Type)
		}
		if rec.Seq != s.seq+1 {
			return fmt.Errorf("wal: replay sequence %d, want %d", rec.Seq, s.seq+1)
		}
		// A batch frame commits len(Batch) consecutive operations in one
		// durable unit; the scanner already guaranteed it is whole.
		for _, op := range rec.Batch {
			if _, err := s.applyOp(op); err != nil {
				return err
			}
		}
		s.seq += uint64(len(rec.Batch))
		s.recovery.Replayed += len(rec.Batch)
		s.sinceCkpt += len(rec.Batch)
	}
	s.recovery.TornBytes = sc.TornBytes()

	// Reclaim pages a dying checkpoint wrote but never published (or
	// published but did not get to free).
	onDisk, err := s.pg.DiskPages()
	if err != nil {
		return err
	}
	for _, id := range onDisk {
		if !s.isLive(id) {
			if err := s.pg.Free(id); err != nil {
				return err
			}
			s.recovery.PagesFreed++
		}
	}
	return nil
}

// applyOp performs one logged operation on the tree, reporting
// whether the targeted record existed (inserts always report true).
func (s *Store) applyOp(op Op) (bool, error) {
	switch op.Type {
	case TypeInsert:
		return true, s.tree.Insert(op.Rec)
	case TypeDelete:
		return s.tree.Delete(op.ID, op.OldQI)
	case TypeUpdate:
		return s.tree.Update(op.ID, op.OldQI, op.Rec)
	}
	return false, fmt.Errorf("wal: apply of %v batch op", op.Type)
}

// audit is the recovery gate: the tree's structural audit must pass
// (verify.Tree: regions, MBRs, counts, leaf depth, parent pointers,
// each trie leaf a distinct child), and — once the store holds at least BaseK
// records, the threshold below which no release exists — the independent
// release auditor must re-prove the base release (verify.NewFamily:
// k-anonymity, no record twice, every record inside its box). Only then
// may the store publish.
func (s *Store) audit() error {
	if err := verify.Tree(s.tree, verify.TreeOptions{}); err != nil {
		return fmt.Errorf("wal: recovered tree failed audit: %w", err)
	}
	if s.tree.Len() >= s.tree.Config().BaseK {
		if _, err := s.family(); err != nil {
			return fmt.Errorf("wal: recovered release failed audit: %w", err)
		}
	}
	return nil
}

// family scans and proves the release family of the CURRENT leaves.
// Nothing is carried between calls: a mutation since the last proof
// cannot be served on the strength of an older one.
func (s *Store) family() (*verify.Family, error) {
	leaves := core.Tiling{Partitions: s.tree.Leaves()}
	return verify.NewFamily(leaves, s.tree.Config().BaseK)
}

// die poisons the store after a crash or unrecoverable append error.
// The poisoning error wraps ErrPoisoned and the cause, so errors.Is
// matches the sentinel while errors.As / retry.IsTransient still see
// the original fault through the chain.
func (s *Store) die(err error) {
	if s.dead == nil {
		s.dead = fmt.Errorf("%w: %w", ErrPoisoned, err)
	}
}

// ValidateQI rejects at ingress anything the recovery path would
// refuse later — the tree's own rule, attr.ValidateQI: wrong
// dimensionality and non-finite coordinates (DecodeCheckpoint refuses
// NaN, so one such record folded into a checkpoint would make every
// subsequent Open fail with no self-healing). Write-ahead logging means
// a record is durable before it is applied — so nothing may reach the
// WAL that apply, checkpoint, or recovery could reject. It is a
// stateless function so concurrent front ends can validate on the
// submitting goroutine before an operation is enqueued into a shared
// batch (a bad op must fail its own caller, not everyone sharing its
// commit frame).
func ValidateQI(dims int, qi []float64) error {
	if err := attr.ValidateQI(dims, qi); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// ValidateOp applies the ingress rules to one batch operation.
func ValidateOp(dims int, op Op) error {
	switch op.Type {
	case TypeInsert:
		return ValidateQI(dims, op.Rec.QI)
	case TypeDelete:
		return ValidateQI(dims, op.OldQI)
	case TypeUpdate:
		if err := ValidateQI(dims, op.OldQI); err != nil {
			return err
		}
		return ValidateQI(dims, op.Rec.QI)
	}
	return fmt.Errorf("wal: batch op of type %v", op.Type)
}

// log appends one framed record durably; the operation is committed
// iff this returns nil. A transient append failure whose rollback
// succeeded leaves the log clean and the store's seq/tree untouched —
// the store SURVIVES it, and the caller may retry the whole operation
// later. Only a dead writer (crash, failed rollback) or a
// non-transient fault poisons the store.
func (s *Store) log(r Record) error {
	payload, err := Encode(r)
	if err != nil {
		return err
	}
	if err := s.w.Append(payload); err != nil {
		return s.settle(err)
	}
	return nil
}

// settle decides whether the store outlives a failed log append or
// checkpoint: a transient fault whose rollback succeeded (the writer, if
// any, still alive) is returned and the store stays serviceable; anything
// else poisons it.
func (s *Store) settle(err error) error {
	if s.dead == nil && retry.IsTransient(err) && (s.w == nil || s.w.Err() == nil) {
		return err
	}
	s.die(err)
	return s.dead
}

// Insert, Delete and Update are ApplyBatch of ONE operation — the same
// validate → log → apply → checkpoint path, one frame and one fsync
// each. Delete and Update report whether the record existed; a delete
// of an absent record still logs (write-ahead means logging before
// knowing) and replay tolerates the no-op.
func (s *Store) Insert(rec attr.Record) error {
	_, err := s.applyOne(Op{Type: TypeInsert, Rec: rec})
	return err
}

// Delete logs and applies one deletion (by ID at a point).
func (s *Store) Delete(id int64, qi []float64) (bool, error) {
	return s.applyOne(Op{Type: TypeDelete, ID: id, OldQI: qi})
}

// Update logs and applies one relocation.
func (s *Store) Update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	return s.applyOne(Op{Type: TypeUpdate, ID: id, OldQI: oldQI, Rec: rec})
}

func (s *Store) applyOne(op Op) (bool, error) {
	found, err := s.ApplyBatch([]Op{op})
	return len(found) == 1 && found[0], err
}

// ApplyBatch logs and applies a group of operations as ONE durable
// log frame — one write, one fsync — turning N per-operation syncs
// into one. WAL-before-apply: an operation is in the tree only if its
// frame is durable. The batch is all-or-nothing at the frame boundary:
// a crash mid-append tears the whole frame, and recovery's scanner
// drops a torn frame entirely, so no prefix of a batch is ever
// replayed. The returned slice reports, per operation, whether its
// target existed (inserts always true). Callers submitting on behalf
// of independent clients should pre-validate each op with ValidateOp:
// ApplyBatch rejects the whole batch on the first invalid op.
func (s *Store) ApplyBatch(ops []Op) ([]bool, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	if len(ops) == 0 {
		return nil, nil
	}
	dims := s.tree.Config().Schema.Dims()
	for i, op := range ops {
		if err := ValidateOp(dims, op); err != nil {
			return nil, fmt.Errorf("wal: batch op %d: %w", i, err)
		}
	}
	if err := s.log(Record{Type: TypeBatch, Seq: s.seq + 1, Batch: ops}); err != nil {
		return nil, err
	}
	s.seq += uint64(len(ops))
	s.sinceCkpt += len(ops)
	found := make([]bool, len(ops))
	for i, op := range ops {
		var err error
		if found[i], err = s.applyOp(op); err != nil {
			// The log already says the operation happened, so a failure
			// here is log/tree divergence: later checkpoints and reads
			// would be built on state the durable log contradicts. That
			// cannot be repaired in place, so the store is poisoned.
			// Ingress validation makes this unreachable for well-formed
			// stores; it is the backstop.
			s.divergent = true
			s.die(fmt.Errorf("wal: tree diverged from committed log: %w", err))
			return found, s.dead
		}
	}
	return found, s.maybeCheckpoint()
}

// maybeCheckpoint runs an automatic checkpoint when the configured
// operation budget since the last one is spent. A transiently aborted
// checkpoint is swallowed: the operation that triggered it has
// already committed, sinceCkpt keeps growing, so the very next
// operation triggers the checkpoint again. Swallowing it here is what
// lets callers treat any transient error from Insert/ApplyBatch as
// "the operation did not happen" and retry the whole operation —
// which would double-commit if a committed-but-unpointed batch could
// surface a transient error.
func (s *Store) maybeCheckpoint() error {
	if s.opts.CheckpointEvery <= 0 || s.sinceCkpt < s.opts.CheckpointEvery {
		return nil
	}
	// The one error Checkpoint returns from a store it left alive is the
	// transient abort swallowed here; anything else is s.dead.
	_ = s.Checkpoint()
	return s.dead
}

// Checkpoint makes the tree durable in pager pages — writing only what
// changed since the last checkpoint — and truncates the
// log: the new log file holds only the manifest, atomically renamed
// into place (the protocol is writeCheckpoint, checkpoint.go). A
// transient fault with a clean rollback aborts the checkpoint but
// leaves the store serviceable: the old log and writer are intact until
// the final rename, the tree and its nodes' durable copies are untouched,
// and the pages the aborted attempt allocated are given back. Any other
// error — including an injected crash — poisons the store, and recovery
// falls back to the previous checkpoint plus the old log.
func (s *Store) Checkpoint() error { return s.checkpoint(false) }

// checkpoint runs the protocol once; full writes every object whole.
func (s *Store) checkpoint(full bool) error {
	if s.dead != nil {
		return s.dead
	}
	out := &pageStream{pg: s.pg}
	err := s.writeCheckpoint(out, full)
	if err == nil {
		return nil
	}
	if err = s.settle(err); s.dead == nil {
		out.discard()
	}
	return err
}

// Release returns the release at granularity k1 (0 = base k) from the
// release family of the current leaves, scanned and proven on every
// call — the store is single-goroutine and keeps no memo, so what it
// hands out is always what the auditor just accepted. A poisoned
// (crashed) store refuses.
func (s *Store) Release(k1 int) ([]anonmodel.Partition, error) {
	if s.dead != nil {
		return nil, s.dead
	}
	fam, err := s.family()
	if err != nil {
		return nil, fmt.Errorf("wal: release withheld: %w", err)
	}
	return fam.Release(k1)
}

// ScrubReport summarizes one scrub pass over the store's pages.
type ScrubReport struct {
	// Scanned counts on-disk pages checked against their seals.
	Scanned int
	// Corrupt lists the pages whose seal no longer matched their bytes.
	Corrupt []pager.PageID
	// Freed counts rotten pages outside the live checkpoint that were
	// quarantined (freed); they were garbage a crash or an aborted
	// checkpoint left behind, so nothing is lost.
	Freed int
	// Rewritten reports that rot had reached the live checkpoint and the
	// checkpoint was rewritten from the live tree.
	Rewritten bool
}

// Scrub checks every on-disk page against its sealed checksum and
// repairs what it finds: a rotten page outside the live checkpoint is
// quarantined (freed — it is residue, not state), and rot inside the
// live checkpoint triggers a fresh checkpoint from the live tree,
// which by WAL-before-apply equals the rotted snapshot plus the
// committed log tail — the repair the rotted page would have needed.
// Detecting rot at rest here, on a schedule, is what keeps a
// bit-flipped checkpoint page from lying dormant until the reopen
// that needs it.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if s.dead != nil {
		return rep, s.dead
	}
	scanned, corrupt, err := s.pg.VerifyPages()
	rep.Scanned = scanned
	rep.Corrupt = corrupt
	if err != nil {
		return rep, err
	}
	if len(corrupt) == 0 {
		return rep, nil
	}
	liveRot := false
	for _, id := range corrupt {
		if s.isLive(id) {
			liveRot = true
			continue
		}
		if err := s.pg.Free(id); err != nil {
			return rep, err
		}
		rep.Freed++
	}
	if !liveRot {
		return rep, nil
	}
	if s.divergent {
		// Backstop: with neither a clean durable image nor an
		// authoritative tree there is nothing to rebuild from.
		s.die(fmt.Errorf("wal: scrub found rot in the live checkpoint of an unauditable store"))
		return rep, s.dead
	}
	// The live tree is authoritative. A full checkpoint rewrites every
	// leaf and node into fresh pages, so nothing published
	// refers to the rotted pages afterwards and they are freed with the
	// rest of the old image.
	if err := s.checkpoint(true); err != nil {
		return rep, err
	}
	rep.Rewritten = true
	return rep, nil
}

// Recover rebuilds a poisoned store in place, without a process
// restart: close the dead handles, re-run the full committed-prefix
// recovery against the durable image (exactly what a reopening
// process would do, audit included), and adopt the fresh state. If
// the durable image itself is unrecoverable — bit rot in a checkpoint
// page, say — but the live tree is still authoritative (audited at
// the last recovery and never diverged from the committed log, so by
// WAL-before-apply it equals the last checkpoint plus the committed
// tail), the store reseeds the durable image from the live tree and
// recovers from that. Returns nil iff the store is serviceable again;
// on failure the store stays poisoned. Callers owning concurrency
// (internal/serve) must route this through the same goroutine that
// owns all other store access.
func (s *Store) Recover() error {
	authoritative := !s.divergent && s.tree != nil
	s.closeHandles()
	fresh, err := Open(s.opts)
	if err != nil && authoritative {
		if rerr := s.reseed(); rerr != nil {
			err = fmt.Errorf("%w; reseed from live tree also failed: %w", err, rerr)
		} else {
			fresh, err = Open(s.opts)
		}
	}
	if err != nil {
		s.die(err) // a first poisoning, if the store was healthy on entry
		return fmt.Errorf("wal: resurrection failed: %w", err)
	}
	s.adopt(fresh)
	return nil
}

// closeHandles releases the writer and pager without flushing pooled
// pages: a poisoned store's pool must not decide what reaches disk,
// and a healthy store has no dirty pages outside the checkpoint
// protocol anyway.
func (s *Store) closeHandles() {
	s.closeWriter()
	if s.pg != nil {
		s.pg.CloseNoFlush()
		s.pg = nil
	}
}

// closeWriter closes the log writer, if any, keeping its retry count.
func (s *Store) closeWriter() error {
	if s.w == nil {
		return nil
	}
	s.retired += s.w.retries
	err := s.w.Close()
	s.w = nil
	return err
}

// reseed rebuilds the durable image — pages.db and a manifest-only
// wal.log — from the live tree. Only called when the tree is
// authoritative; the rebuilt image is then handed to Open for the
// real audited recovery. CreateDiskFile truncates, so whatever rot
// the old image held is gone.
func (s *Store) reseed() error {
	pg, err := openPager(s.opts, os.O_CREATE|os.O_TRUNC, pager.CreateDiskFile)
	if err != nil {
		return err
	}
	s.pg = pg
	// The old page IDs, and every node's durable copy, belong to
	// the discarded image: nothing is live and every node is rewritten.
	s.live = nil
	if err := s.writeCheckpoint(&pageStream{pg: pg}, true); err != nil {
		s.closeHandles()
		return err
	}
	s.closeHandles()
	return nil
}

// adopt transplants a freshly recovered store's state — healthy,
// audited, undiverged — into this one, keeping only the cumulative
// counters: the retry count of the writers already closed and the
// checkpoint counts. The old handles are already closed; the donor
// object is abandoned.
func (s *Store) adopt(f *Store) {
	f.retired, f.ckpt = s.retired, s.ckpt
	*s = *f
}

// SnapshotPages returns the page IDs of the live checkpoint — leaf
// pages and node pages, ascending — for fault drills that need to aim
// at (or away from) live state.
func (s *Store) SnapshotPages() []pager.PageID { return slices.Clone(s.live) }

// CheckpointStats returns the cumulative checkpoint counters.
func (s *Store) CheckpointStats() CheckpointStats { return s.ckpt }

// FlipBit flips one bit of an on-disk page without re-sealing its
// checksum — the bit-rot drill hook, delegated to the pager.
func (s *Store) FlipBit(id pager.PageID, bit int) error {
	return s.pg.FlipBit(id, bit)
}

// Tree exposes the underlying index (read-mostly).
func (s *Store) Tree() *rplustree.Tree { return s.tree }

// Options returns the store's options with defaults applied.
func (s *Store) Options() Options { return s.opts }

// Len returns the number of live records.
func (s *Store) Len() int { return s.tree.Len() }

// Seq returns the committed operation count (checkpoint-folded plus
// replayed plus logged since).
func (s *Store) Seq() uint64 { return s.seq }

// RecoveryStats returns what the last Open cost; zero value after
// Create.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// Retries returns how many extra physical write attempts the store's log
// writers have spent absorbing transient faults (0 when every append
// landed first try). The writer is the single owner
// of that fault class, so this is the whole absorption count.
func (s *Store) Retries() int64 {
	n := s.retired
	if s.w != nil {
		n += s.w.retries
	}
	return n
}

// Err returns the poisoning error if the store has died, else nil.
func (s *Store) Err() error { return s.dead }

// Close releases the log writer and pager. A dead store closes too —
// that is the "process exit" after a simulated crash.
func (s *Store) Close() error {
	var perr error
	werr := s.closeWriter()
	if s.pg != nil {
		// A crashed store must not flush its pool on the way out: the
		// crash already decided what reached disk.
		if s.dead != nil {
			perr = s.pg.CloseNoFlush()
		} else {
			perr = s.pg.Close()
		}
		s.pg = nil
	}
	if werr != nil {
		return werr
	}
	return perr
}
