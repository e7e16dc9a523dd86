package pager

import (
	"errors"
	"io"
	"slices"
)

// File is the one storage file type: a DiskFile's page file and the
// write-ahead log are both Files. *os.File is one (Write appends when it
// is opened O_APPEND, as the log is); NewMemFile returns one held in
// memory, whose Write always appends.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// memFile is the in-memory File: a byte slice. Sync and Close do nothing.
type memFile struct {
	data []byte
	pos  int64 // the Seek offset; reads and writes do not use it
}

// NewMemFile returns an empty File held in memory. It is not safe for
// concurrent use.
func NewMemFile() File { return &memFile{} }

var errNegativeOffset = errors.New("pager: negative file offset")

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	n := 0
	if off < int64(len(m.data)) {
		n = copy(p, m.data[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	m.grow(off + int64(len(p)))
	return copy(m.data[off:], p), nil
}

func (m *memFile) Write(p []byte) (int, error) { return m.WriteAt(p, int64(len(m.data))) }

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += m.pos
	case io.SeekEnd:
		off += int64(len(m.data))
	}
	if off < 0 {
		return 0, errNegativeOffset
	}
	m.pos = off
	return off, nil
}

func (m *memFile) Truncate(size int64) error {
	if size < 0 {
		return errNegativeOffset
	}
	m.data = m.data[:min(size, int64(len(m.data)))]
	m.grow(size)
	return nil
}

// grow extends the file to size bytes, zeroing the new ones — including
// those a shrinking Truncate left in the slice's capacity — in amortized
// steps.
func (m *memFile) grow(size int64) {
	if n := int64(len(m.data)); size > n {
		m.data = slices.Grow(m.data, int(size-n))[:size]
		clear(m.data[n:])
	}
}

func (m *memFile) Sync() error  { return nil }
func (m *memFile) Close() error { return nil }
