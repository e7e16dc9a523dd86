package attr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// This file is the repository's one durable record encoding: log frames
// (internal/wal), leaf pages and the checkpoint's node objects
// (internal/rplustree) and the fixed-width data files (internal/dataset)
// all write quasi-identifier values through it.
//
// A ROW is a layout byte followed by one column per attribute:
//
//	rowVarint one canonical uvarint per attribute. Taken when every value
//	          is bit-exactly an integer in [0, 2³²): the paper's record
//	          (Section 5, eight 4-byte columns) in 13 bytes.
//	rowRaw    the float64 bits, little-endian, 8 bytes per attribute.
//	          Everything else: fractions, negatives, −0.0, 2³² and above.
//
// The layout is a property of the data, never a setting, and it is
// canonical: a raw row the varint layout could hold and a varint column
// of 2³² or more are rejected on decode, so every vector has exactly one
// encoding and every float64 bit pattern round-trips. A row does not
// carry its own length — the reader knows the dimensionality from its
// schema or frame header.
//
// A RECORD is a zigzag-varint ID (relative to a base the caller chooses),
// a row, and the sensitive value behind a varint length. Counts and
// lengths are canonical varints throughout: an over-long encoding of a
// small number is an error, not an alias.

const (
	rowRaw    byte = 1
	rowVarint byte = 2
)

// FixedRowSize is the size of dims bare fixed columns (PutFixedRow): the
// paper's record size (32 bytes for 8 attributes).
func FixedRowSize(dims int) int { return 4 * dims }

// MinRowSize is the fewest bytes a row of dims attributes encodes to, its
// layout byte included — a one-byte varint per column: what decoders bound
// the element counts they read with.
func MinRowSize(dims int) int { return 1 + dims }

// column returns v as an integer column if that holds it bit for bit.
func column(v float64) (uint32, bool) {
	if !(v >= 0 && v < 1<<32) { // also false for NaN
		return 0, false
	}
	u := uint32(v)
	return u, math.Float64bits(float64(u)) == math.Float64bits(v) // −0.0 and fractions differ
}

// layout returns the layout qi's values take and the size of its columns
// in it.
func layout(qi []float64) (byte, int) {
	size := 0
	for _, v := range qi {
		u, ok := column(v)
		if !ok {
			return rowRaw, 8 * len(qi)
		}
		size += (bits.Len32(u|1) + 6) / 7 // the length of u's uvarint
	}
	return rowVarint, size
}

// PutFixedRow writes qi into buf as bare fixed columns — one
// little-endian uint32 per attribute, no layout byte — and fails on a
// value they cannot hold. It is the record format of the binary data files.
func PutFixedRow(buf []byte, qi []float64) error {
	if len(buf) < FixedRowSize(len(qi)) {
		return fmt.Errorf("attr: buffer of %d bytes, row needs %d", len(buf), FixedRowSize(len(qi)))
	}
	for i, v := range qi {
		u, ok := column(v)
		if !ok {
			return fmt.Errorf("attr: attribute %d is %v, not an integer in [0, 2^32): a fixed 4-byte column cannot hold it", i, v)
		}
		binary.LittleEndian.PutUint32(buf[4*i:], u)
	}
	return nil
}

// FixedRow reads bare fixed columns from buf into qi.
func FixedRow(qi []float64, buf []byte) error {
	if len(buf) < FixedRowSize(len(qi)) {
		return fmt.Errorf("attr: buffer of %d bytes, row needs %d", len(buf), FixedRowSize(len(qi)))
	}
	for i := range qi {
		qi[i] = float64(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// AppendRow appends the row encoding of qi to b.
func AppendRow(b []byte, qi []float64) []byte {
	if lay, _ := layout(qi); lay == rowVarint {
		b = append(b, rowVarint)
		for _, v := range qi {
			b = binary.AppendUvarint(b, uint64(v))
		}
		return b
	}
	b = append(b, rowRaw)
	for _, v := range qi {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// AppendRecord appends r to b: its ID relative to base, its row and its
// sensitive value.
func AppendRecord(b []byte, r Record, base int64) []byte {
	b = binary.AppendVarint(b, r.ID-base)
	b = AppendRow(b, r.QI)
	b = binary.AppendUvarint(b, uint64(len(r.Sensitive)))
	return append(b, r.Sensitive...)
}

// RecordSize is len(AppendRecord(nil, r, base)) without building it.
func RecordSize(r Record, base int64) int {
	var v [binary.MaxVarintLen64]byte
	_, row := layout(r.QI)
	return binary.PutVarint(v[:], r.ID-base) + 1 + row + binary.PutUvarint(v[:], uint64(len(r.Sensitive))) + len(r.Sensitive)
}

// Reader decodes what the Append functions wrote, with bounds checks: a
// short, over-long or non-canonical input is an error, never a panic and
// never an allocation sized by the input's claims.
type Reader struct {
	data []byte
	off  int
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Remaining is the number of bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Bytes consumes n bytes and returns them, aliasing the input.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || n > r.Remaining() {
		return nil, fmt.Errorf("attr: encoding truncated at byte %d: need %d more, have %d", r.off, n, r.Remaining())
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Byte consumes one byte.
func (r *Reader) Byte() (byte, error) {
	b, err := r.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U32 consumes a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// Uvarint consumes a canonical unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("attr: bad varint at byte %d", r.off)
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, fmt.Errorf("attr: over-long varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// Varint consumes a canonical zigzag varint.
func (r *Reader) Varint() (int64, error) {
	u, err := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// Count consumes a varint element count and checks it against the bytes
// left: with each element at least `each` bytes long, a count the
// remaining input cannot hold is corrupt — and is refused before the
// caller allocates anything for it.
func (r *Reader) Count(each int) (int, error) {
	at := r.off
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()/each) {
		return 0, fmt.Errorf("attr: count at byte %d claims %d elements of >= %d bytes, %d bytes left", at, n, each, r.Remaining())
	}
	return int(n), nil
}

// Row consumes a row of len(qi) attributes into qi.
func (r *Reader) Row(qi []float64) error {
	at := r.off
	lay, err := r.Byte()
	if err != nil {
		return err
	}
	switch lay {
	case rowVarint:
		for i := range qi {
			u, err := r.Uvarint()
			if err != nil {
				return err
			}
			if u >= 1<<32 {
				return fmt.Errorf("attr: row at byte %d holds %d in a varint column: values of 2^32 and above take the raw layout", at, u)
			}
			qi[i] = float64(u)
		}
	case rowRaw:
		b, err := r.Bytes(8 * len(qi))
		if err != nil {
			return err
		}
		for i := range qi {
			qi[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		if want, _ := layout(qi); want != rowRaw {
			return fmt.Errorf("attr: row at byte %d spends the raw layout on values the varint layout holds", at)
		}
	default:
		return fmt.Errorf("attr: row at byte %d has layout %d", at, lay)
	}
	return nil
}

// Record consumes a record whose ID was written relative to base; qi
// becomes its QI vector and fixes the dimensionality.
func (r *Reader) Record(qi []float64, base int64) (Record, error) {
	id, err := r.Varint()
	if err != nil {
		return Record{}, err
	}
	if err := r.Row(qi); err != nil {
		return Record{}, err
	}
	n, err := r.Count(1)
	if err != nil {
		return Record{}, err
	}
	sens, _ := r.Bytes(n) // Count checked the length
	return Record{ID: base + id, QI: qi, Sensitive: string(sens)}, nil
}
