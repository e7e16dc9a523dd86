package wal

import (
	"encoding/binary"
	"fmt"

	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
)

// frameOverhead is the fixed cost of one frame: length prefix plus
// checksum trailer.
const frameOverhead = 8

// maxFrame bounds a frame's payload. Manifests of enormous trees stay
// far below this; anything above it in a log being scanned is treated
// as a torn length prefix.
const maxFrame = 64 << 20

// Writer appends framed records to a log file. It is not safe for
// concurrent use.
type Writer struct {
	f    pager.File
	size int64 // bytes of committed frames; a retry truncates back here
	// retries counts the physical write attempts past the first of each
	// append — the transient faults this writer absorbed.
	retries int64
	dead    error
	// buf is the frame scratch buffer, reused across appends so the
	// steady-state framing cost is zero allocations (the CRC table is
	// likewise built once, at package init). Safe because the writer
	// is single-goroutine and the frame is fully written before Append
	// returns.
	buf []byte
}

// newWriter appends to the log file f, opened O_APPEND, whose first size
// bytes are committed frames, behind o's AppendFault. A failed Write may
// still have landed a torn prefix. One whose error exposes a true
// `Transient() bool` is retried under retry.Budget, truncate first;
// anything else is rolled back and escalates.
func newWriter(f pager.File, size int64, o Options) *Writer {
	if o.AppendFault != nil {
		f = o.AppendFault(f)
	}
	return &Writer{f: f, size: size}
}

// Append frames the payload and appends it durably: length prefix,
// payload, CRC32-C trailer, then fsync. The write runs under retry.Do;
// the fsync runs once (sync). A failed append is CLEAN: the log is rolled
// back to its committed size, so the frame the caller was told is not
// committed leaves no bytes behind and the caller may simply try the
// append again later. Only when that rollback itself fails (as every
// operation on a crashed process's files does) is the writer dead: every
// later append fails with the same error, exactly like a dead process.
func (w *Writer) Append(payload []byte) error {
	if w.dead != nil {
		return w.dead
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("wal: frame payload of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	frame := w.buf[:0]
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, pager.Checksum(payload))
	w.buf = frame

	again := false
	tries, err := retry.Do(func() error {
		if again {
			// A failed attempt may have torn bytes into the O_APPEND
			// log; appending the retry after them would bury this frame
			// — and every later one — behind garbage the scanner stops
			// at, losing acknowledged writes on recovery. Rewind to the
			// committed size so the retry overwrites the torn prefix
			// instead.
			if terr := w.f.Truncate(w.size); terr != nil {
				return terr
			}
		}
		again = true
		_, werr := w.f.Write(frame)
		return werr
	})
	w.retries += int64(tries - 1)
	if err != nil {
		return w.fail("append", err)
	}
	if err := w.sync(); err != nil {
		// The frame's bytes are in the file but were never made
		// durable; without the rollback a recovery scan would replay
		// them as a phantom commit of an operation the caller was told
		// failed.
		return w.fail("sync", err)
	}
	w.size += int64(len(frame))
	return nil
}

// fail settles a failed append or sync: it rolls the log back to its
// committed size and returns the original error (and its Transient
// marker) intact. If the rollback fails too, the log's tail is unknowable
// from inside this process and the writer is dead, torn prefix and all:
// only a reopen's committed-prefix scan and truncate can repair it.
func (w *Writer) fail(op string, err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.dead = fmt.Errorf("wal: %s failed (%w) and the rollback truncate failed too: %w", op, err, terr)
		return w.dead
	}
	return fmt.Errorf("wal: %s: %w", op, err)
}

// sync flushes the file once. A failed fsync is not retried: the retry
// can report success after the kernel dropped the dirty pages the failed
// one did not write, so the failure fails the append (which Append rolls
// back) and the caller resubmits.
func (w *Writer) sync() error {
	return w.f.Sync()
}

// Err returns the error that killed the writer — a failed rollback — or
// nil while the writer can still append.
func (w *Writer) Err() error { return w.dead }

// Close closes the log file.
func (w *Writer) Close() error { return w.f.Close() }

// Scanner walks the committed prefix of a log image. The first frame
// that is incomplete or fails its checksum ends the scan; Torn
// reports whether such a tail was present (torn tails are normal
// after a crash — they are "not committed", not corruption).
type Scanner struct {
	data []byte
	off  int
	torn bool
}

// NewScanner scans a fully-read log image.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Next returns the next committed frame payload, or false at the end
// of the committed prefix. The returned slice aliases the log image.
func (s *Scanner) Next() ([]byte, bool) {
	if s.torn || s.off >= len(s.data) {
		return nil, false
	}
	if s.off+4 > len(s.data) {
		s.torn = true
		return nil, false
	}
	// Compare the length prefix in uint64 before converting: on 32-bit
	// platforms a corrupt prefix above MaxInt32 would wrap negative as
	// int, slip past the bound checks, and panic the slice expression.
	n64 := uint64(binary.LittleEndian.Uint32(s.data[s.off:]))
	if n64 > maxFrame {
		s.torn = true
		return nil, false
	}
	n := int(n64)
	if n > len(s.data)-s.off-frameOverhead {
		s.torn = true
		return nil, false
	}
	payload := s.data[s.off+4 : s.off+4+n]
	sum := binary.LittleEndian.Uint32(s.data[s.off+4+n:])
	if pager.Checksum(payload) != sum {
		s.torn = true
		return nil, false
	}
	s.off += 4 + n + 4
	return payload, true
}

// Torn reports whether the scan ended at an incomplete or
// checksum-failing frame rather than at a clean end of file.
func (s *Scanner) Torn() bool { return s.torn }

// TornBytes returns how many bytes of uncommitted tail follow the
// committed prefix.
func (s *Scanner) TornBytes() int {
	if !s.torn {
		return 0
	}
	return len(s.data) - s.off
}
