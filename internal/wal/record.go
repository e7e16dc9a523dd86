// Package wal gives the anonymizing index crash-consistent
// durability: a write-ahead log of maintenance operations, periodic
// checkpoints that serialize the R⁺-tree into checksummed pager
// pages, and recovery that replays the committed log tail onto the
// last complete checkpoint — then refuses to publish anything until
// the independent auditor (internal/verify) has re-proved the
// recovered tree's safety invariants. The paper's central identity —
// the anonymization *is* the index — makes that gate the whole point:
// a torn page or half-applied operation is not just an availability
// bug, it is silently a privacy bug, so no release is ever emitted
// from an unaudited recovery.
//
// Log format. The log is a sequence of frames:
//
//	[length uint32 LE][payload][crc uint32 LE]
//
// where crc is CRC32-C (Castagnoli) over the payload, matching the
// pager's page seals. A frame is committed iff it is entirely on disk
// with a matching checksum; the first frame that fails either test
// ends the committed prefix (a torn tail is "not yet committed",
// never corruption). The payload is a type byte followed by a
// fixed-width little-endian body, per the repository's binary codec
// conventions (internal/dataset). Three frame types exist: the two
// checkpoint records and TypeBatch, the one mutation frame — a single
// insert, delete or update is logged as a batch of one.
//
// Every log file begins with a CheckpointEnd record: the manifest of
// the checkpoint it extends — which pager pages hold the checkpoint's
// directory (the trie with a checksummed reference per leaf, see
// checkpoint.go), the directory's length and checksum, and the
// operation count folded into it. Checkpointing writes the new
// manifest to a temporary file and atomically renames it over the log,
// so the log is truncated and the checkpoint published in one
// indivisible step.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
)

// Type identifies a log record.
type Type byte

const (
	// TypeInsert, TypeDelete and TypeUpdate tag the operations INSIDE a
	// TypeBatch frame: one record insertion, one deletion (by ID at a
	// point), one relocation. They are op tags only — a frame whose own
	// type byte is one of them is rejected by Decode.
	TypeInsert Type = 1
	TypeDelete Type = 2
	TypeUpdate Type = 3
	// TypeCheckpointBegin marks checkpoint intent in the old log; it
	// carries no state and replay ignores it, but its frame exercises
	// the same durability path as every other append, so crash points
	// can land mid-checkpoint.
	TypeCheckpointBegin Type = 4
	// TypeCheckpointEnd is a checkpoint manifest — always and only the
	// first record of a log file.
	TypeCheckpointEnd Type = 5
	// TypeBatch is the mutation frame: one or more maintenance
	// operations in ONE frame, so the frame checksum makes the whole
	// batch all-or-nothing. The scanner drops a torn frame entirely,
	// which is what guarantees recovery never applies a batch prefix.
	TypeBatch Type = 6
)

// isOp reports whether t tags an operation inside a batch frame.
func (t Type) isOp() bool { return t == TypeInsert || t == TypeDelete || t == TypeUpdate }

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeUpdate:
		return "update"
	case TypeCheckpointBegin:
		return "checkpoint-begin"
	case TypeCheckpointEnd:
		return "checkpoint-end"
	case TypeBatch:
		return "batch"
	}
	return fmt.Sprintf("wal.Type(%d)", byte(t))
}

// Manifest is the body of a CheckpointEnd record: where the
// checkpoint's directory lives and how much history it folds in. It is
// the root of the checksum chain: the frame CRC covers the manifest,
// DirCRC covers the directory, and the directory carries a CRC per
// leaf — on top of the pager's per-page seals.
type Manifest struct {
	// Seq is the sequence number of the last operation folded into the
	// checkpoint; replayed tail records continue from Seq+1.
	Seq uint64
	// DirLen is the byte length of the encoded directory.
	DirLen uint32
	// DirCRC is the CRC32-C of the encoded directory.
	DirCRC uint32
	// DirPages are the pager pages holding the directory, in order.
	DirPages []pager.PageID
}

// Op is one maintenance operation inside a batch frame. Op.Type must
// be TypeInsert, TypeDelete or TypeUpdate; batches do not nest.
type Op struct {
	Type Type
	// Rec is the inserted (or relocated-to) record.
	Rec attr.Record
	// ID and OldQI identify the record a delete or update targets.
	ID    int64
	OldQI []float64
}

// Record is one decoded log record: Manifest for checkpoint ends,
// Batch for mutations, neither for checkpoint begins.
type Record struct {
	Type Type
	// Seq is the record's sequence number; appends number consecutively
	// and recovery verifies the numbering.
	Seq uint64
	// Manifest is the checkpoint manifest (TypeCheckpointEnd only).
	Manifest *Manifest
	// Batch is the operation list of a mutation frame (TypeBatch only).
	// Seq numbers the batch's FIRST operation; the rest follow
	// consecutively, so the batch occupies sequence numbers
	// [Seq, Seq+len(Batch)).
	Batch []Op
}

// castagnoli is the CRC32-C table, shared with the pager's page seals.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-C over payload bytes used in frame trailers
// and in the checkpoint's directory and leaf seals.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// maxVec bounds decoded vector lengths (QI dimensions, sensitive
// strings, manifest page lists): a record claiming more elements than
// its payload could physically hold is corrupt, and the bound keeps
// the decoder from allocating attacker-chosen amounts.
const maxVec = 1 << 20

// Encode serializes the record to a frame payload (type byte + body).
func Encode(r Record) ([]byte, error) {
	b := []byte{byte(r.Type)}
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	switch r.Type {
	case TypeCheckpointBegin:
		return b, nil
	case TypeBatch:
		if len(r.Batch) == 0 {
			return nil, fmt.Errorf("wal: empty batch record")
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Batch)))
		for _, op := range r.Batch {
			if !op.Type.isOp() {
				return nil, fmt.Errorf("wal: batch op of type %v", op.Type)
			}
			b = append(b, byte(op.Type))
			if op.Type != TypeInsert {
				b = binary.LittleEndian.AppendUint64(b, uint64(op.ID))
				b = appendVec(b, op.OldQI)
			}
			if op.Type != TypeDelete {
				b = appendRecord(b, op.Rec)
			}
		}
		return b, nil
	case TypeCheckpointEnd:
		if r.Manifest == nil {
			return nil, fmt.Errorf("wal: checkpoint-end without manifest")
		}
		m := r.Manifest
		b = binary.LittleEndian.AppendUint64(b, m.Seq)
		b = binary.LittleEndian.AppendUint32(b, m.DirLen)
		b = binary.LittleEndian.AppendUint32(b, m.DirCRC)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m.DirPages)))
		for _, id := range m.DirPages {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
		return b, nil
	default:
		return nil, fmt.Errorf("wal: encode of unknown record type %d", byte(r.Type))
	}
}

func appendVec(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendRecord(b []byte, r attr.Record) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
	b = appendVec(b, r.QI)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Sensitive)))
	return append(b, r.Sensitive...)
}

// Decode parses a frame payload. Arbitrary input yields an error,
// never a panic — the fuzz target in this package holds it to that.
func Decode(payload []byte) (Record, error) {
	d := recDecoder{data: payload}
	tag, err := d.u8()
	if err != nil {
		return Record{}, err
	}
	r := Record{Type: Type(tag)}
	if r.Seq, err = d.u64(); err != nil {
		return Record{}, err
	}
	switch r.Type {
	case TypeCheckpointBegin:
		// No body.
	case TypeBatch:
		n, err := d.u32()
		if err != nil {
			return Record{}, err
		}
		// Each op costs at least one tag byte, bounding the count by the
		// remaining payload like every other decoded vector.
		if n == 0 || int(n) > maxVec || int(n) > d.remaining() {
			return Record{}, fmt.Errorf("wal: batch claims %d ops, %d bytes left", n, d.remaining())
		}
		r.Batch = make([]Op, n)
		for i := range r.Batch {
			if r.Batch[i], err = d.op(); err != nil {
				return Record{}, fmt.Errorf("wal: batch op %d: %w", i, err)
			}
		}
	case TypeCheckpointEnd:
		m := &Manifest{}
		if m.Seq, err = d.u64(); err != nil {
			return Record{}, err
		}
		if m.DirLen, err = d.u32(); err != nil {
			return Record{}, err
		}
		if m.DirCRC, err = d.u32(); err != nil {
			return Record{}, err
		}
		n, err := d.u32()
		if err != nil {
			return Record{}, err
		}
		if int(n) > maxVec || int(n)*8 > d.remaining() {
			return Record{}, fmt.Errorf("wal: manifest claims %d pages, %d bytes left", n, d.remaining())
		}
		m.DirPages = make([]pager.PageID, n)
		for i := range m.DirPages {
			id, err := d.u64()
			if err != nil {
				return Record{}, err
			}
			m.DirPages[i] = pager.PageID(id)
		}
		r.Manifest = m
	case TypeInsert, TypeDelete, TypeUpdate:
		return Record{}, fmt.Errorf("wal: %v is an op tag, not a frame type; mutations are logged as batch frames", r.Type)
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", tag)
	}
	if d.off != len(d.data) {
		return Record{}, fmt.Errorf("wal: record has %d trailing bytes", len(d.data)-d.off)
	}
	return r, nil
}

// recDecoder reads a record payload with bounds checks.
type recDecoder struct {
	data []byte
	off  int
}

func (d *recDecoder) remaining() int { return len(d.data) - d.off }

func (d *recDecoder) u8() (byte, error) {
	if d.off+1 > len(d.data) {
		return 0, fmt.Errorf("wal: record truncated at byte %d", d.off)
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

func (d *recDecoder) u32() (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, fmt.Errorf("wal: record truncated at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *recDecoder) u64() (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, fmt.Errorf("wal: record truncated at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

func (d *recDecoder) vec() ([]float64, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > maxVec || int(n)*8 > d.remaining() {
		return nil, fmt.Errorf("wal: vector claims %d values, %d bytes left", n, d.remaining())
	}
	v := make([]float64, n)
	for i := range v {
		bits, err := d.u64()
		if err != nil {
			return nil, err
		}
		v[i] = math.Float64frombits(bits)
	}
	return v, nil
}

// op reads one tagged batch operation: deletes and updates carry the
// target's ID and old QI, inserts and updates the new record.
func (d *recDecoder) op() (Op, error) {
	tag, err := d.u8()
	if err != nil {
		return Op{}, err
	}
	op := Op{Type: Type(tag)}
	if !op.Type.isOp() {
		return Op{}, fmt.Errorf("wal: op has type %d", tag)
	}
	if op.Type != TypeInsert {
		id, err := d.u64()
		if err != nil {
			return Op{}, err
		}
		op.ID = int64(id)
		if op.OldQI, err = d.vec(); err != nil {
			return Op{}, err
		}
	}
	if op.Type != TypeDelete {
		if op.Rec, err = d.record(); err != nil {
			return Op{}, err
		}
	}
	return op, nil
}

func (d *recDecoder) record() (attr.Record, error) {
	id, err := d.u64()
	if err != nil {
		return attr.Record{}, err
	}
	qi, err := d.vec()
	if err != nil {
		return attr.Record{}, err
	}
	slen, err := d.u32()
	if err != nil {
		return attr.Record{}, err
	}
	if int(slen) > maxVec || int(slen) > d.remaining() {
		return attr.Record{}, fmt.Errorf("wal: sensitive value claims %d bytes, %d left", slen, d.remaining())
	}
	sens := d.data[d.off : d.off+int(slen)]
	d.off += int(slen)
	return attr.Record{ID: int64(id), QI: qi, Sensitive: string(sens)}, nil
}
