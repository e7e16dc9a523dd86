package wal

import (
	"fmt"
	"os"
	"slices"

	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
)

// This file is the checkpoint: one node-addressed, shadow-paged routine
// for writing the tree to pages.db, and its mirror for reading it back.
//
// On disk a checkpoint is rplustree's checkpoint form (snapshot.go there):
// every tree node is one whole OBJECT — a leaf object, a node object — or
// one delta object over an earlier whole one (its base), each named by a
// reference (pages, offset, length, CRC32-C) held in the object above it.
// Leaf objects and their deltas are packed back to back, each checkpoint's
// batch in its own run of pages (an object may straddle pages, or span
// many); node objects and theirs the same way into a run of their own, so
// a leaf page is replaced only when its leaves are. The ROOT object, a
// header and one reference, rides in the MANIFEST, the first frame of
// wal.log. Nothing is decoded that a checksum chained from the CRC-framed
// manifest does not cover: manifest → root → node or delta → base → … →
// leaf, on top of the pager's per-page seals.
//
// A checkpoint writes, into pages nothing published refers to, only what
// changed — a delta or the whole object per changed leaf and per node on
// the paths from those to the root — and the manifest rename publishes it.
// Unchanged subtrees keep their references, so old and new image share
// most pages; pages the new image no longer refers to (a base is referred
// to while a delta names it) are freed after the rename. A full
// checkpoint — Create, the preload, reseed, scrub repair, compaction — is
// the same routine with every node changed and every object written whole.

// spaceFactor bounds the page file: an incremental checkpoint that has left
// more allocated than spaceFactor × the image with every object whole (what
// a rewrite comes to; a base and its delta are never less) is abandoned
// before it is published and every node rewritten instead, which packs the
// image into two runs and frees every older page. With the copy a rewrite
// needs while the old image is still published, pages.db stays within
// spaceFactor+1 times the live image.
const spaceFactor = 2

// slackPages is what page granularity may cost a checkpoint beyond the
// bytes it writes: the last page of the leaf run and the last of the node
// run are partly air.
const slackPages = 2

// CheckpointStats are cumulative counts of what checkpointing has cost
// since the store was created or opened.
type CheckpointStats struct {
	// Checkpoints counts published checkpoints; Full those that set out to
	// write every node (the first one, reseeds, scrub repairs, compactions).
	Checkpoints int64
	Full        int64
	// Written sizes the objects written to pages, by kind.
	Written rplustree.Footprint
	// PagesFreed counts pages released because no object of the newly
	// published image was stored in them any more.
	PagesFreed int64
}

// Add returns the field-wise sum, for callers totalling a fleet.
func (a CheckpointStats) Add(b CheckpointStats) CheckpointStats {
	return CheckpointStats{a.Checkpoints + b.Checkpoints, a.Full + b.Full, a.Written.Add(b.Written), a.PagesFreed + b.PagesFreed}
}

// String renders the counters as one report line.
func (c CheckpointStats) String() string {
	return fmt.Sprintf("%d (%d full), %v written, %d pages freed", c.Checkpoints, c.Full, c.Written, c.PagesFreed)
}

// pageRun is a run of pages being filled one after the other: at most its
// last page is pinned.
type pageRun struct {
	id  pager.PageID // the page being filled
	cur []byte       // its pinned bytes; nil when none
	off int          // fill offset in cur
}

// pageStream packs one checkpoint attempt's objects into freshly
// allocated pager pages, leaves with deltas and nodes in a run each.
type pageStream struct {
	pg *pager.Pager
	// pages lists every page allocated, in order, until the checkpoint
	// they belong to is published.
	pages         []pager.PageID
	leaves, nodes pageRun
}

// put stores b at the end of its run and returns where it went.
func (w *pageStream) put(b []byte, leaf bool) (rplustree.Ref, error) {
	r := &w.nodes
	if leaf {
		r = &w.leaves
	}
	ref := rplustree.Ref{Len: uint32(len(b)), CRC: pager.Checksum(b)}
	for first := true; len(b) > 0; first = false {
		if r.cur == nil {
			id, data, err := w.pg.Alloc()
			if err != nil {
				return ref, err
			}
			w.pages = append(w.pages, id)
			r.id, r.cur, r.off = id, data, 0
		}
		if first {
			ref.Off = uint32(r.off)
		}
		ref.Pages = append(ref.Pages, r.id)
		n := copy(r.cur[r.off:], b)
		b, r.off = b[n:], r.off+n
		if r.off == len(r.cur) {
			if err := w.seal(r); err != nil {
				return ref, err
			}
		}
	}
	return ref, nil
}

// seal unpins the page r is filling; its next put starts a fresh one.
func (w *pageStream) seal(r *pageRun) error {
	if r.cur == nil {
		return nil
	}
	r.cur = nil
	return w.pg.Unpin(r.id)
}

// discard gives back every page of an attempt that will not be
// published. Best effort: a page that cannot be freed now is
// unreferenced residue, which the next Open sweeps.
func (w *pageStream) discard() {
	_ = w.seal(&w.leaves)
	_ = w.seal(&w.nodes)
	for _, id := range w.pages {
		_ = w.pg.Free(id)
	}
	w.pages = nil
}

// writeCheckpoint is the checkpoint protocol. It is also the store
// bootstrap: with no writer yet (Create, reseed), steps touching the old
// log are skipped.
//
//  1. Announce intent in the old log (replay ignores the marker).
//  2. Stream every changed leaf and every node above one, whole or as a
//     delta, into fresh pages, children before parents — and, should that
//     overrun the space rule, give the pages back and stream every node
//     whole instead; flush and sync them.
//  3. Publish: the manifest, the root object in it, goes into wal.tmp,
//     which is renamed over wal.log and the directory synced.
//  4. Only now tell the written nodes where their durable copies live
//     (Commit). An attempt that aborts earlier leaves every node's copy
//     as it was, so the retry writes those nodes again and trusts no page
//     of the aborted attempt.
//  5. Free, in ascending order, the pages the old image referred to and
//     the new one does not. A crash here leaks them at worst — the next
//     Open sweeps unreferenced pages.
func (s *Store) writeCheckpoint(out *pageStream, full bool) error {
	if s.w != nil {
		if err := s.log(Record{Type: TypeCheckpointBegin, Seq: s.seq}); err != nil {
			return err
		}
	}
	// The space rule: room is the pages a checkpoint may allocate, the slack
	// of the rewrite to come held back. With none to spare (nothing is
	// published yet, or the file is already full) nothing incremental is
	// tried; otherwise the attempt is measured by what it allocated.
	room := func(image int64) int64 {
		return spaceFactor*image/int64(s.opts.PageSize) - int64(len(s.live)) - slackPages
	}
	full = full || room(s.imageBytes) < 1
	ck, err := s.tree.EncodeCheckpoint(full, out.put)
	if err == nil && !full && int64(len(out.pages)) > room(ck.Whole) {
		// Over budget: nothing published refers to the attempt's pages, so
		// they go back and the same walk writes every node whole.
		out.discard()
		full = true
		ck, err = s.tree.EncodeCheckpoint(full, out.put)
	}
	if err != nil {
		return err
	}
	if err := out.seal(&out.nodes); err != nil {
		return err
	}
	if err := out.seal(&out.leaves); err != nil {
		return err
	}
	if err := s.pg.Flush(); err != nil {
		return err
	}
	if err := s.pg.Sync(); err != nil {
		return err
	}

	payload, err := Encode(Record{Type: TypeCheckpointEnd, Seq: s.seq, Manifest: &Manifest{Seq: s.seq, Root: ck.Root}})
	if err != nil {
		return err
	}
	f, err := s.opts.open(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND)
	if err != nil {
		return err
	}
	w2 := newWriter(f, 0, s.opts)
	if err := w2.Append(payload); err != nil {
		w2.Close()
		return err
	}
	if err := s.opts.FS.Rename(tmpName, logName); err != nil {
		w2.Close()
		return err
	}
	out.pages = nil // published: they are the checkpoint's now, not the attempt's
	// Syncing the directory makes the rename durable.
	dir, err := s.opts.open("", os.O_RDONLY)
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		w2.Close()
		return err
	}
	s.closeWriter()
	s.w = w2
	s.sinceCkpt = 0
	ck.Commit()

	old := s.live
	s.setImage(ck.Pages, ck.Image.Bytes())
	s.ckpt.Checkpoints++
	if full {
		s.ckpt.Full++
	}
	s.ckpt.Written = s.ckpt.Written.Add(ck.Written)
	for _, id := range old {
		if s.isLive(id) {
			continue
		}
		if err := s.pg.Free(id); err != nil {
			return err
		}
		s.ckpt.PagesFreed++
	}
	return nil
}

// setImage records the published checkpoint's footprint. The live-page
// set is recomputed from the references of one tree walk each time —
// there is no running refcount to drift.
func (s *Store) setImage(pages []pager.PageID, bytes int64) {
	slices.Sort(pages)
	s.live = slices.Compact(pages)
	s.imageBytes = bytes
}

// isLive reports whether the published checkpoint refers to the page.
func (s *Store) isLive(id pager.PageID) bool {
	_, ok := slices.BinarySearch(s.live, id)
	return ok
}

// loadCheckpoint rebuilds the tree from the checkpoint whose root object
// the manifest holds: each node, leaf and delta object through the pager
// as the decoder follows its reference, every byte checked against the
// checksum chain before the decoder sees it. The decoded tree's nodes know
// the references as their durable copies, so the first checkpoint after a
// reopen is incremental too.
func (s *Store) loadCheckpoint(m *Manifest) error {
	var object []byte
	var bytes int64
	var live []pager.PageID
	tree, err := rplustree.DecodeCheckpoint(s.opts.Tree, m.Root, func(ref rplustree.Ref) ([]byte, error) {
		var err error
		if object, err = s.readRef(ref, object[:0]); err != nil {
			return nil, fmt.Errorf("wal: checkpoint object: %w", err)
		}
		live = append(live, ref.Pages...)
		bytes += int64(ref.Len)
		return object, nil
	})
	if err != nil {
		return err
	}
	s.tree = tree
	s.setImage(live, bytes)
	return nil
}

// readRef appends to dst the bytes a reference names and verifies their
// checksum. The reference comes from checksummed storage but is still
// validated against the page geometry: an offset outside its first
// page, or a page run that does not match the length, is an error. Each
// page read runs under retry.Do: a transient device fault during
// resurrection must not condemn an otherwise intact image.
func (s *Store) readRef(ref rplustree.Ref, dst []byte) ([]byte, error) {
	ps := uint64(s.opts.PageSize)
	span := uint64(ref.Off) + uint64(ref.Len)
	if uint64(ref.Off) >= ps || uint64(len(ref.Pages)) != (span+ps-1)/ps {
		return dst, fmt.Errorf("wal: reference to %d bytes at offset %d does not fit its %d pages of %d bytes", ref.Len, ref.Off, len(ref.Pages), ps)
	}
	start, lo, left := len(dst), int(ref.Off), int(ref.Len)
	for _, id := range ref.Pages {
		var data []byte
		_, err := retry.Do(func() error {
			var rerr error
			data, rerr = s.pg.Read(id)
			return rerr
		})
		if err != nil {
			return dst, fmt.Errorf("wal: checkpoint page %d: %w", id, err)
		}
		n := min(len(data)-lo, left)
		dst = append(dst, data[lo:lo+n]...)
		lo, left = 0, left-n
		if err := s.pg.Unpin(id); err != nil {
			return dst, err
		}
	}
	if got := pager.Checksum(dst[start:]); got != ref.CRC {
		return dst, fmt.Errorf("wal: checksum %08x over %d bytes in pages %v, reference says %08x", got, ref.Len, ref.Pages, ref.CRC)
	}
	return dst, nil
}
