package core

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/rplustree"
)

// RTreeConfig parameterizes the index-based anonymizer.
type RTreeConfig struct {
	// Schema of the quasi-identifier attributes. Required.
	Schema *attr.Schema
	// Constraint is the definition of an allowable partition. Defaults
	// to KAnonymity{K: BaseK}; if it is richer than plain k-anonymity a
	// split guard is installed so leaves never split into violating
	// halves (Section 6).
	Constraint anonmodel.Constraint
	// BaseK is the index's base anonymity parameter (leaf minimum
	// occupancy). Zero derives it from Constraint.MinSize(); Section
	// 5.1 builds with base k=5 and leaf-scans to every published k.
	BaseK int
	// LeafFactor, NodeCapacity and Split pass through to the index.
	LeafFactor   int
	NodeCapacity int
	Split        rplustree.SplitPolicy
	// BulkLoad, when non-nil, makes Load use buffer-tree bulk loading
	// with this configuration; nil loads tuple-at-a-time.
	BulkLoad *rplustree.BulkLoadConfig
	// Parallelism is unread: leaf scans run on GOMAXPROCS, and loading
	// and splitting on the calling goroutine.
	Parallelism int
}

// RTreeAnonymizer is the paper's system: a spatial index whose leaves
// are the anonymization. It supports bulk loading, incremental
// maintenance, granularity derivation and multi-granular release.
type RTreeAnonymizer struct {
	cfg        RTreeConfig
	constraint anonmodel.Constraint
	tree       *rplustree.Tree
	// loader is the open load's bulk loader, nil between loads; reads
	// and writes sum the I/O of the loads that have closed.
	loader        *rplustree.BulkLoader
	reads, writes int64
}

// Validate checks the configuration without building anything: the
// schema must be present and the effective constraint must pass
// anonmodel.Validate (in particular, any k below 2 is rejected — k=1
// "anonymity" is the identity release).
func (cfg RTreeConfig) Validate() error {
	_, _, err := cfg.resolve()
	return err
}

// resolve applies the Constraint/BaseK defaulting rules and validates
// the result, returning the effective constraint and base k.
func (cfg RTreeConfig) resolve() (anonmodel.Constraint, int, error) {
	if cfg.Schema == nil {
		return nil, 0, fmt.Errorf("core: nil schema")
	}
	constraint := cfg.Constraint
	baseK := cfg.BaseK
	switch {
	case constraint == nil && baseK == 0:
		return nil, 0, fmt.Errorf("core: need a Constraint or a BaseK")
	case constraint == nil:
		constraint = anonmodel.KAnonymity{K: baseK}
	case baseK == 0:
		baseK = constraint.MinSize()
	}
	if err := anonmodel.Validate(constraint); err != nil {
		return nil, 0, err
	}
	if baseK < 2 {
		return nil, 0, fmt.Errorf("core: BaseK %d provides no anonymity; need >= 2", baseK)
	}
	if baseK < constraint.MinSize() {
		return nil, 0, fmt.Errorf("core: BaseK %d below constraint minimum %d", baseK, constraint.MinSize())
	}
	return constraint, baseK, nil
}

// NewRTreeAnonymizer builds an empty anonymizing index.
func NewRTreeAnonymizer(cfg RTreeConfig) (*RTreeAnonymizer, error) {
	constraint, baseK, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	tcfg := rplustree.Config{
		Schema:       cfg.Schema,
		BaseK:        baseK,
		LeafFactor:   cfg.LeafFactor,
		NodeCapacity: cfg.NodeCapacity,
		Split:        cfg.Split,
	}
	if _, plainK := constraint.(anonmodel.KAnonymity); !plainK {
		c := constraint
		tcfg.Guard = func(left, right []attr.Record) bool {
			return c.Satisfied(left) && c.Satisfied(right)
		}
	}
	tree, err := rplustree.New(tcfg)
	if err != nil {
		return nil, err
	}
	if cfg.BulkLoad != nil {
		// A loader opened and closed here reports a bad BulkLoadConfig now
		// rather than at the first Load.
		bl, err := rplustree.NewBulkLoader(tree, *cfg.BulkLoad)
		if err != nil {
			return nil, err
		}
		if err := bl.Close(); err != nil {
			return nil, err
		}
	}
	return &RTreeAnonymizer{cfg: cfg, constraint: constraint, tree: tree}, nil
}

// Name implements Anonymizer.
func (a *RTreeAnonymizer) Name() string {
	if a.cfg.BulkLoad != nil {
		return "rtree-buffer"
	}
	return RTree
}

// Tree exposes the underlying index (read-mostly: for queries, level
// inspection and invariant checks).
func (a *RTreeAnonymizer) Tree() *rplustree.Tree { return a.tree }

// Constraint returns the installed allowable-partition definition.
func (a *RTreeAnonymizer) Constraint() anonmodel.Constraint { return a.constraint }

// Len returns the number of records currently indexed.
func (a *RTreeAnonymizer) Len() int { return a.tree.Len() }

// Load inserts a batch of records through the configured load path
// (buffer tree or tuple-at-a-time) and leaves the index query-ready.
// It may be called repeatedly — each call is one incremental batch of
// the Section 2.2 / Figure 7(b) regime, and with a bulk loader one load:
// a loader is opened for it and closed when it ends. That one-shot load
// (rplustree.BulkLoader.Load) moves row numbers into recs, which it only
// reads and does not keep; on error the loader stays open, holding its
// own copies of what it still buffers, and Sync retries. With a load
// already open (LoadBuffered), recs joins it and Sync ends it.
func (a *RTreeAnonymizer) Load(recs []attr.Record) error {
	if a.cfg.BulkLoad == nil {
		for _, r := range recs {
			if err := a.tree.Insert(r); err != nil {
				return err
			}
		}
		return nil
	}
	if a.loader != nil {
		if err := a.loader.InsertBatch(recs); err != nil {
			return err
		}
		return a.Sync()
	}
	bl, err := rplustree.NewBulkLoader(a.tree, *a.cfg.BulkLoad)
	if err != nil {
		return err
	}
	if err := bl.Load(recs); err != nil {
		a.loader = bl
		return err
	}
	a.closed(bl)
	return nil
}

// LoadBuffered inserts a batch through the buffer tree without forcing
// the buffers down to the leaves. Use it to stream a large data set in
// pieces — the whole point of buffer-tree loading is that records
// descend lazily, a level at a time, as buffers fill — then call Sync
// once before publishing. It opens a loader if none is open. Without a
// bulk loader it behaves like Load.
func (a *RTreeAnonymizer) LoadBuffered(recs []attr.Record) error {
	if a.cfg.BulkLoad == nil {
		return a.Load(recs)
	}
	if a.loader == nil {
		bl, err := rplustree.NewBulkLoader(a.tree, *a.cfg.BulkLoad)
		if err != nil {
			return err
		}
		a.loader = bl
	}
	return a.loader.InsertBatch(recs)
}

// Sync ends the open load, if any: every buffered record is forced into
// the leaves, making the index consistent for Partitions, queries and
// level views, and the loader is closed. On error the loader stays open
// and Sync can be retried.
func (a *RTreeAnonymizer) Sync() error {
	if a.loader == nil {
		return nil
	}
	if err := a.loader.Close(); err != nil {
		return err
	}
	a.closed(a.loader)
	a.loader = nil
	return nil
}

// closed adds a closed load's I/O to the totals IOStats reports.
func (a *RTreeAnonymizer) closed(bl *rplustree.BulkLoader) {
	s := bl.Stats()
	a.reads += s.Reads
	a.writes += s.Writes
}

// Insert adds one record (tuple-at-a-time maintenance), after ending any
// open load.
func (a *RTreeAnonymizer) Insert(rec attr.Record) error {
	if err := a.Sync(); err != nil {
		return err
	}
	return a.tree.Insert(rec)
}

// Delete removes the record with the given ID at qi, after ending any
// open load. The bool reports whether the record was found.
func (a *RTreeAnonymizer) Delete(id int64, qi []float64) (bool, error) {
	if err := a.Sync(); err != nil {
		return false, err
	}
	return a.tree.Delete(id, qi)
}

// Update relocates a record, after ending any open load. The bool reports
// whether the record was found.
func (a *RTreeAnonymizer) Update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	if err := a.Sync(); err != nil {
		return false, err
	}
	return a.tree.Update(id, oldQI, rec)
}

// Anonymize implements Anonymizer: load everything, publish at the base
// constraint.
func (a *RTreeAnonymizer) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	if err := a.Load(recs); err != nil {
		return nil, err
	}
	return a.Partitions(0)
}

// Partitions materializes the anonymized table at granularity k1 via
// the leaf-scan algorithm. k1 == 0 publishes at the base constraint.
// The published boxes are leaf MBR unions — compacted by construction.
// Execution time is one scan of the leaves regardless of k1, which is
// why Figure 7(a) shows flat R⁺-tree times across k.
//
// Derivation is two-stage: leaves are first grouped into the base
// release (every group satisfies the constraint — this also absorbs any
// underfull leaf that an unbalanced, duplicate-forced split produced),
// and coarser granularities group whole base partitions. Every record
// is therefore k-bound (Definition 2) to its base partition in every
// granularity published from this index state, which is what makes the
// release set jointly collusion-safe (Lemma 1) even when individual
// leaves dip below k.
func (a *RTreeAnonymizer) Partitions(k1 int) ([]anonmodel.Partition, error) {
	base, err := a.baseRelease()
	if err != nil {
		return nil, err
	}
	return a.derive(base, k1)
}

// baseRelease scans the leaves into the base release. This is the one
// copy of a release family: the scan moves the leaves' records into an
// array of its own, so nothing published aliases the live tree and a
// later Insert or Delete cannot change it.
func (a *RTreeAnonymizer) baseRelease() (Tiling, error) {
	return Tiling{Partitions: a.tree.Leaves()}.Scan(a.constraint)
}

// derive returns the release at granularity k1 as windows over base's
// records. The base release itself answers k1 == 0 and, when the
// installed constraint already guarantees BaseK records per partition,
// k1 == BaseK.
func (a *RTreeAnonymizer) derive(base Tiling, k1 int) ([]anonmodel.Partition, error) {
	baseK := a.tree.Config().BaseK
	if k1 == 0 || (k1 == baseK && a.constraint.MinSize() >= baseK) {
		return base.Partitions, nil
	}
	if k1 < baseK {
		return nil, fmt.Errorf("core: granularity %d below base k %d", k1, baseK)
	}
	t, err := base.Scan(anonmodel.All{a.constraint, anonmodel.KAnonymity{K: k1}})
	return t.Partitions, err
}

// HierarchicalRelease materializes the anonymized table from tree level
// `level` (0 = leaves) per the Section 3.1 hierarchical algorithm: each
// level-i node becomes one partition holding all records beneath it. A
// level with a partition that fails the installed constraint — a leaf an
// unbalanced, duplicate-forced split left underfull — is withheld with an
// error naming its smallest partition: withheld beats wrong.
func (a *RTreeAnonymizer) HierarchicalRelease(level int) ([]anonmodel.Partition, error) {
	ps, err := a.tree.Level(level)
	if err != nil {
		return nil, err
	}
	if err := anonmodel.CheckAnonymity(ps, a.constraint); err != nil {
		return nil, fmt.Errorf("core: level %d withheld, smallest partition %d records: %w", level, smallest(ps), err)
	}
	return ps, nil
}

// smallest is the size of the smallest of ps, 0 for none.
func smallest(ps []anonmodel.Partition) int {
	min := 0
	for i, p := range ps {
		if i == 0 || p.Size() < min {
			min = p.Size()
		}
	}
	return min
}

// MultiGranular derives one release per requested granularity from one
// leaf scan: the base release is materialized once and every
// granularity is a set of windows over its records. The releases are
// jointly collusion-safe (Lemma 1) because every partition of every
// release is a union of whole base partitions; verify.Releases
// confirms it.
func (a *RTreeAnonymizer) MultiGranular(ks []int) ([]Release, error) {
	out := make([]Release, 0, len(ks))
	if len(ks) == 0 {
		return out, nil
	}
	base, err := a.baseRelease()
	if err != nil {
		return nil, fmt.Errorf("core: base release: %w", err)
	}
	for _, k := range ks {
		ps, err := a.derive(base, k)
		if err != nil {
			return nil, fmt.Errorf("core: granularity %d: %w", k, err)
		}
		out = append(out, Release{Granularity: k, Partitions: ps})
	}
	return out, nil
}

// HierarchicalReleases derives one release per tree level — the
// automatic k, lk, l²k, ... sequence of Section 3.1. Level 0 (leaves)
// comes first. The root level (a single all-records partition) is
// included last; callers wanting non-trivial releases can drop it. One
// withheld level withholds the set, with HierarchicalRelease's error.
func (a *RTreeAnonymizer) HierarchicalReleases() ([]Release, error) {
	out := make([]Release, 0, a.tree.Height())
	for lvl := 0; lvl < a.tree.Height(); lvl++ {
		ps, err := a.HierarchicalRelease(lvl)
		if err != nil {
			return nil, err
		}
		out = append(out, Release{Granularity: smallest(ps), Partitions: ps})
	}
	return out, nil
}

// IOStats returns the I/O counters summed over the bulk loads that have
// closed (a LoadBuffered span counts once Sync ends it), or zeros when
// loading tuple-at-a-time. Maintenance charges none.
func (a *RTreeAnonymizer) IOStats() (reads, writes int64) {
	return a.reads, a.writes
}
