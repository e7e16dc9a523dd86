package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
)

// This file is the checkpoint: one leaf-addressed, shadow-paged routine
// for writing the tree to pages.db, and its mirror for reading it back.
//
// On disk a checkpoint is three things. LEAF PAGES hold leaf encodings
// packed back to back, each checkpoint's batch in its own run of pages
// (a leaf may straddle pages, or span many). The DIRECTORY — the split
// trie with, per leaf, a reference (pages, offset, length, CRC32-C)
// instead of inline records — sits in pages of its own. The MANIFEST,
// the first frame of wal.log, names the directory's pages, length and
// CRC. Nothing is decoded that a checksum chained from the CRC-framed
// manifest does not cover: manifest → directory → leaf, on top of the
// pager's per-page seals.
//
// A checkpoint writes, into pages no published directory refers to,
// only the leaves that changed since their last durable copy, then a
// whole new directory, and publishes both with the manifest rename.
// Unchanged leaves keep their references, so old and new directory
// share most leaf pages; pages the new directory no longer refers to
// are freed after the rename. A full checkpoint — Create, the preload,
// reseed, scrub repair, compaction — is the same routine with every
// leaf treated as changed.

// spaceFactor bounds the page file: a checkpoint that would leave more
// than spaceFactor × the live leaf bytes allocated rewrites every leaf
// instead, which packs the image into one run and frees every older
// page. With the copy a rewrite needs while the old image is still
// published, pages.db stays within spaceFactor+1 times the live image.
const spaceFactor = 2

// CheckpointStats are cumulative counts of what checkpointing has cost
// since the store was created or opened.
type CheckpointStats struct {
	// Checkpoints counts published checkpoints; Full those that wrote
	// every leaf (the first one, reseeds, scrub repairs, compactions).
	Checkpoints int64
	Full        int64
	// LeavesWritten and LeafBytes size the leaf encodings written.
	LeavesWritten int64
	LeafBytes     int64
	// DirBytes sizes the directories written (one per checkpoint).
	DirBytes int64
	// PagesFreed counts pages released because no leaf of the newly
	// published directory referred to them any more.
	PagesFreed int64
}

// Add returns the field-wise sum, for callers totalling a fleet.
func (a CheckpointStats) Add(b CheckpointStats) CheckpointStats {
	return CheckpointStats{
		Checkpoints:   a.Checkpoints + b.Checkpoints,
		Full:          a.Full + b.Full,
		LeavesWritten: a.LeavesWritten + b.LeavesWritten,
		LeafBytes:     a.LeafBytes + b.LeafBytes,
		DirBytes:      a.DirBytes + b.DirBytes,
		PagesFreed:    a.PagesFreed + b.PagesFreed,
	}
}

// String renders the counters as one report line.
func (c CheckpointStats) String() string {
	return fmt.Sprintf("%d (%d full), %d leaves / %d leaf bytes + %d directory bytes written, %d pages freed",
		c.Checkpoints, c.Full, c.LeavesWritten, c.LeafBytes, c.DirBytes, c.PagesFreed)
}

// pageStream packs byte strings back to back into freshly allocated
// pager pages, keeping at most one page pinned.
type pageStream struct {
	pg *pager.Pager
	// pages lists every page allocated, in order, until the checkpoint
	// they belong to is published.
	pages []pager.PageID
	cur   []byte // the pinned page being filled; nil when none
	off   int    // fill offset in cur
}

// put stores b and returns where it went.
func (w *pageStream) put(b []byte) (rplustree.LeafRef, error) {
	ref := rplustree.LeafRef{Len: uint32(len(b)), CRC: Checksum(b)}
	for first := true; len(b) > 0; first = false {
		if w.cur == nil {
			id, data, err := w.pg.Alloc()
			if err != nil {
				return ref, err
			}
			w.pages, w.cur, w.off = append(w.pages, id), data, 0
		}
		if first {
			ref.Off = uint32(w.off)
		}
		ref.Pages = append(ref.Pages, w.pages[len(w.pages)-1])
		n := copy(w.cur[w.off:], b)
		b, w.off = b[n:], w.off+n
		if w.off == len(w.cur) {
			if err := w.seal(); err != nil {
				return ref, err
			}
		}
	}
	return ref, nil
}

// seal unpins the page being filled; the next put starts a fresh one.
func (w *pageStream) seal() error {
	if w.cur == nil {
		return nil
	}
	w.cur = nil
	return w.pg.Unpin(w.pages[len(w.pages)-1])
}

// discard gives back every page of an attempt that will not be
// published. Best effort: a page that cannot be freed now is
// unreferenced residue, which the next Open sweeps.
func (w *pageStream) discard() {
	_ = w.seal()
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
//  2. Stream every changed leaf into fresh pages, then the directory
//     into fresh pages of its own; flush and sync them.
//  3. Publish: the manifest goes into wal.tmp, which is renamed over
//     wal.log and the directory synced.
//  4. Only now stamp the written leaves with their new locations. An
//     attempt that aborts earlier leaves every stamp as it was, so the
//     retry writes those leaves again and trusts no page of the aborted
//     attempt.
//  5. Free, in ascending order, the pages the old directory referred to
//     and the new one does not. A crash here leaks them at worst — the
//     next Open sweeps unreferenced pages.
func (s *Store) writeCheckpoint(out *pageStream, full bool) error {
	if s.w != nil {
		if err := s.log(Record{Type: TypeCheckpointBegin, Seq: s.seq}); err != nil {
			return err
		}
	}
	if !full {
		// The space rule, decided before anything is written: room is what
		// this checkpoint may add to the allocated pages.
		room := spaceFactor*s.leafBytes - int64(len(s.live))*int64(s.opts.PageSize)
		full = room < 0 || s.tree.DirtyBytes(room) > room
	}
	ck, err := s.tree.EncodeCheckpoint(full, out.put)
	if err != nil {
		return err
	}
	if len(ck.Dir) > math.MaxUint32 {
		return fmt.Errorf("wal: checkpoint directory of %d bytes exceeds the manifest's 32-bit length", len(ck.Dir))
	}
	// The directory starts on a page of its own: its pages are replaced
	// at every checkpoint, a leaf page only when its leaves are.
	if err := out.seal(); err != nil {
		return err
	}
	dir, err := out.put(ck.Dir)
	if err != nil {
		return err
	}
	if err := out.seal(); err != nil {
		return err
	}
	if err := s.pg.Flush(); err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := s.pg.Sync(); err != nil {
			return err
		}
	}

	m := &Manifest{Seq: s.seq, DirLen: dir.Len, DirCRC: dir.CRC, DirPages: dir.Pages}
	payload, err := Encode(Record{Type: TypeCheckpointEnd, Seq: s.seq, Manifest: m})
	if err != nil {
		return err
	}
	tmpPath := filepath.Join(s.opts.Dir, tmpName)
	logPath := filepath.Join(s.opts.Dir, logName)
	os.Remove(tmpPath)
	w2, err := openWriter(tmpPath, s.opts.NoSync, s.opts.Retry, s.opts.AppendFault)
	if err != nil {
		return err
	}
	if err := w2.Append(payload); err != nil {
		w2.Close()
		return err
	}
	if err := os.Rename(tmpPath, logPath); err != nil {
		w2.Close()
		return err
	}
	out.pages = nil // published: they are the checkpoint's now, not the attempt's
	if !s.opts.NoSync {
		if err := syncDir(s.opts.Dir); err != nil {
			w2.Close()
			return err
		}
	}
	s.closeWriter()
	s.w = w2
	s.sinceCkpt = 0
	ck.Commit()

	old := s.live
	var leafBytes int64
	live := slices.Clone(dir.Pages)
	for _, ref := range ck.Refs {
		live = append(live, ref.Pages...)
		leafBytes += int64(ref.Len)
	}
	s.setImage(live, leafBytes, len(ck.Dir))
	s.ckpt.Checkpoints++
	if ck.Written == len(ck.Refs) {
		s.ckpt.Full++
	}
	s.ckpt.LeavesWritten += int64(ck.Written)
	s.ckpt.LeafBytes += ck.WrittenBytes
	s.ckpt.DirBytes += int64(len(ck.Dir))
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
// set is recomputed from the references of one directory walk each
// time — there is no running refcount to drift.
func (s *Store) setImage(pages []pager.PageID, leafBytes int64, dirBytes int) {
	slices.Sort(pages)
	s.live = slices.Compact(pages)
	s.leafBytes = leafBytes
	s.dirBytes = dirBytes
}

// isLive reports whether the published checkpoint refers to the page.
func (s *Store) isLive(id pager.PageID) bool {
	_, ok := slices.BinarySearch(s.live, id)
	return ok
}

// loadCheckpoint rebuilds the tree from the checkpoint the manifest
// names: the directory first, then each leaf through the pager, every
// byte checked against the checksum chain before the decoder sees it.
// The decoded tree carries the directory's references as its stamps, so
// the first checkpoint after a reopen is incremental too.
func (s *Store) loadCheckpoint(m *Manifest) error {
	dir, err := s.readRef(rplustree.LeafRef{Pages: m.DirPages, Len: m.DirLen, CRC: m.DirCRC}, nil)
	if err != nil {
		return fmt.Errorf("wal: checkpoint directory: %w", err)
	}
	var leaf []byte
	var leafBytes int64
	live := slices.Clone(m.DirPages)
	tree, err := rplustree.DecodeCheckpoint(s.opts.Tree, dir, func(ref rplustree.LeafRef) ([]byte, error) {
		var err error
		if leaf, err = s.readRef(ref, leaf[:0]); err != nil {
			return nil, fmt.Errorf("wal: checkpoint leaf: %w", err)
		}
		live = append(live, ref.Pages...)
		leafBytes += int64(ref.Len)
		return leaf, nil
	})
	if err != nil {
		return err
	}
	s.tree = tree
	s.setImage(live, leafBytes, len(dir))
	return nil
}

// readRef appends to dst the bytes a reference names and verifies their
// checksum. The reference comes from checksummed storage but is still
// validated against the page geometry: an offset outside its first
// page, or a page run that does not match the length, is an error. Each
// page read runs under the store's retry policy: a transient device
// fault during resurrection must not condemn an otherwise intact image.
func (s *Store) readRef(ref rplustree.LeafRef, dst []byte) ([]byte, error) {
	ps := uint64(s.opts.PageSize)
	span := uint64(ref.Off) + uint64(ref.Len)
	if uint64(ref.Off) >= ps || uint64(len(ref.Pages)) != (span+ps-1)/ps {
		return dst, fmt.Errorf("wal: reference to %d bytes at offset %d does not fit its %d pages of %d bytes", ref.Len, ref.Off, len(ref.Pages), ps)
	}
	start, lo, left := len(dst), int(ref.Off), int(ref.Len)
	for _, id := range ref.Pages {
		var data []byte
		err := s.opts.Retry.Do(func() error {
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
	if got := Checksum(dst[start:]); got != ref.CRC {
		return dst, fmt.Errorf("wal: checksum %08x over %d bytes in pages %v, reference says %08x", got, ref.Len, ref.Pages, ref.CRC)
	}
	return dst, nil
}
