package rplustree

import (
	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// This file implements copy-on-write leaf snapshots: the mechanism the
// serving layer (internal/serve) uses to publish an immutable view of
// the leaf summary after every group commit without paying an O(n)
// copy per batch.
//
// Leaves() aliases tree storage, so a caller that wants a snapshot
// surviving further mutation must copy every leaf — O(n) per
// snapshot, which dominates a write path that publishes after every
// batch. SnapshotLeaves instead copies only the leaves whose content
// changed since the caller's previous snapshot and reuses the earlier
// copies for the rest, making each snapshot O(leaves + changed
// records): the walk is unavoidable, the copying is proportional to
// the batch, not the tree.
//
// Change detection is a per-leaf version counter (node.ver) bumped at
// every site that mutates a leaf's payload — insertIntoLeaf,
// bulkAppendLeaf and Delete; splits and underflow repair mint new
// nodes or route through those sites, so no mutation escapes the
// counter. Reuse additionally requires that the leaf was visited by
// the immediately preceding snapshot (node.snapGen matches the tree's
// generation counter), which makes a freshly minted node — whose
// zero-valued stamps could otherwise masquerade as "unchanged" —
// always copy.

// SnapshotLeaves returns every non-empty leaf in trie order, like
// Leaves, but with boxes and record slices OWNED by the caller: they
// never alias tree storage, so the returned slice remains a
// consistent snapshot under any further mutation. prev must be the
// slice returned by this tree's previous SnapshotLeaves call (or nil
// for a full copy); entries for leaves unchanged since then are
// reused from it, so the caller must treat every returned partition as
// immutable and shared.
//
// Like all tree reads, SnapshotLeaves is not safe for concurrent use
// with mutation: it is meant to be called from the one goroutine that
// owns the tree (the serving layer's committer), which then hands the
// immutable result to any number of readers.
func (t *Tree) SnapshotLeaves(prev []anonmodel.Partition) []anonmodel.Partition {
	// Generation 0 is the zero value of every freshly minted node, so
	// reuse is only trusted from generation 1 on; the first snapshot of
	// a tree (or of a recovered tree, whose nodes are all fresh) copies
	// everything.
	gen := t.snapGen
	t.snapGen++
	cur := t.snapGen
	reusable := func(n *node) bool {
		return gen > 0 && n.snapGen == gen && n.snapVer == n.ver && n.snapIdx < len(prev)
	}
	// First pass: size the snapshot, so the copied leaves land in two
	// flat arenas — one record array and one interval array per
	// snapshot instead of two allocations per changed leaf. Arena
	// slices are published with full three-index expressions and the
	// arenas are sized exactly, so no append below can ever reallocate
	// or let one leaf's slice reach into the next; shared backing is
	// safe because every partition is immutable once returned (the same
	// contract prev reuse already relies on).
	leaves, changedLeaves, changedRecs := 0, 0, 0
	t.walkLeaves(t.root, func(n *node) {
		if len(n.recs) == 0 {
			return
		}
		leaves++
		if !reusable(n) {
			changedLeaves++
			changedRecs += len(n.recs)
		}
	})
	dims := t.cfg.Schema.Dims()
	recArena := make([]attr.Record, 0, changedRecs)
	boxArena := make([]attr.Interval, 0, changedLeaves*dims)
	out := make([]anonmodel.Partition, 0, leaves)
	t.walkLeaves(t.root, func(n *node) {
		if len(n.recs) == 0 {
			return
		}
		if reusable(n) {
			out = append(out, prev[n.snapIdx])
		} else {
			rs := len(recArena)
			recArena = append(recArena, n.recs...)
			re := len(recArena)
			bs := len(boxArena)
			boxArena = append(boxArena, n.mbr...)
			be := len(boxArena)
			out = append(out, anonmodel.Partition{
				Box:     attr.Box(boxArena[bs:be:be]),
				Records: recArena[rs:re:re],
			})
		}
		n.snapGen = cur
		n.snapVer = n.ver
		n.snapIdx = len(out) - 1
	})
	return out
}
