// Package wal gives the anonymizing index crash-consistent
// durability: a write-ahead log of maintenance operations, periodic
// checkpoints that serialize the R⁺-tree into checksummed pager
// pages, and recovery that replays the committed log tail onto the
// last complete checkpoint — then refuses to publish anything until
// internal/verify has re-proved the recovered tree's structure and its
// release's safety invariants. The paper's central identity —
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
// never corruption). The payload is a type byte, a sequence number (a
// uvarint) and a body; record values go through the repository's one row
// codec (internal/attr, row.go), so a row costs what its values hold.
// Three frame types exist: the two checkpoint records and TypeBatch, the
// one mutation frame — a single insert, delete or update is logged as a
// batch of one.
//
// Every log file begins with a CheckpointEnd record: the manifest of
// the checkpoint it extends — the checkpoint's root object itself (the
// entry to a tree of node objects in pager pages, each holding a
// checksummed reference per child, see checkpoint.go) and the operation
// count folded into it. Checkpointing writes the new
// manifest to a temporary file and atomically renames it over the log,
// so the log is truncated and the checkpoint published in one
// indivisible step.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"spatialanon/internal/attr"
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
	// first record of a log file. Its number is the manifest's version
	// (retired ones: see retiredTypes).
	TypeCheckpointEnd Type = 10
	// TypeBatch is the mutation frame: one or more maintenance
	// operations in ONE frame, so the frame checksum makes the whole
	// batch all-or-nothing. The scanner drops a torn frame entirely,
	// which is what guarantees recovery never applies a batch prefix.
	// Its number is the batch format's version (retired ones: see
	// retiredTypes).
	TypeBatch Type = 9
)

// retiredTypes names the frame types of earlier formats. Decode refuses
// each with an error naming its format: there is no compatibility reader,
// because there is no deployed store.
var retiredTypes = map[Type]string{
	5: "a store in checkpoint format 6 or older (manifest frame type 5: the root object in a page of its own)",
	8: "a store in checkpoint format 7 (manifest frame type 8: fixed-width rows, u64 sequence numbers)",
	6: "a batch frame in format version 1 (frame type 6: float64 rows)",
	7: "a batch frame in format version 2 (frame type 7: fixed-width rows, u64 sequence numbers)",
}

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

// Manifest is the body of a CheckpointEnd record: the checkpoint's root
// object and how much history it folds in. It is the root of the checksum
// chain: the frame CRC covers the manifest and the root object in it, and
// every object carries a CRC per child — on top of the pager's per-page
// seals.
type Manifest struct {
	// Seq is the sequence number of the last operation folded into the
	// checkpoint; replayed tail records continue from Seq+1.
	Seq uint64
	// Root is the root object (rplustree.Checkpoint.Root): the rest of
	// the frame.
	Root []byte
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

// maxVec bounds decoded counts (operations, dimensions, manifest pages)
// on top of the remaining-bytes check every count gets: a frame claiming
// more elements than its payload could physically hold is corrupt, and
// the bounds keep the decoder from allocating attacker-chosen amounts.
const maxVec = 1 << 20

// Encode serializes the record to a frame payload: the type byte, the
// sequence number (a uvarint), then the body. A batch body is the
// dimensionality and the operation count (varints) and, per operation,
// its tag byte and its rows in the shared row codec (attr/row.go): an
// insert is a record; a delete an ID and the old row; an update an ID,
// the old row and the new record with its ID written relative to the
// first — one byte when they agree. Every row of a frame has the frame's
// dimensionality.
func Encode(r Record) ([]byte, error) {
	b := []byte{byte(r.Type)}
	b = binary.AppendUvarint(b, r.Seq)
	switch r.Type {
	case TypeCheckpointBegin:
		return b, nil
	case TypeBatch:
		if len(r.Batch) == 0 {
			return nil, fmt.Errorf("wal: empty batch record")
		}
		dims := len(r.Batch[0].OldQI)
		if r.Batch[0].Type == TypeInsert {
			dims = len(r.Batch[0].Rec.QI)
		}
		b = binary.AppendUvarint(b, uint64(dims))
		b = binary.AppendUvarint(b, uint64(len(r.Batch)))
		for i, op := range r.Batch {
			if !op.Type.isOp() {
				return nil, fmt.Errorf("wal: batch op of type %v", op.Type)
			}
			if (op.Type != TypeInsert && len(op.OldQI) != dims) || (op.Type != TypeDelete && len(op.Rec.QI) != dims) {
				return nil, fmt.Errorf("wal: batch op %d does not have the frame's %d attributes", i, dims)
			}
			b = append(b, byte(op.Type))
			if op.Type != TypeInsert {
				b = binary.AppendVarint(b, op.ID)
				b = attr.AppendRow(b, op.OldQI)
			}
			switch op.Type {
			case TypeInsert:
				b = attr.AppendRecord(b, op.Rec, 0)
			case TypeUpdate:
				b = attr.AppendRecord(b, op.Rec, op.ID)
			}
		}
		return b, nil
	case TypeCheckpointEnd:
		if r.Manifest == nil {
			return nil, fmt.Errorf("wal: checkpoint-end without manifest")
		}
		b = binary.AppendUvarint(b, r.Manifest.Seq)
		return append(b, r.Manifest.Root...), nil
	default:
		return nil, fmt.Errorf("wal: encode of unknown record type %d", byte(r.Type))
	}
}

// Decode parses a frame payload. Arbitrary input yields an error,
// never a panic — the fuzz target in this package holds it to that —
// and only the canonical encoding is accepted: what decodes re-encodes
// to the same bytes.
func Decode(payload []byte) (Record, error) {
	d := attr.NewReader(payload)
	tag, err := d.Byte()
	if err != nil {
		return Record{}, err
	}
	r := Record{Type: Type(tag)}
	if name, ok := retiredTypes[r.Type]; ok {
		return Record{}, fmt.Errorf("wal: %s; this build writes manifest frame type %d and batch frame type %d", name, TypeCheckpointEnd, TypeBatch)
	}
	if r.Seq, err = d.Uvarint(); err != nil {
		return Record{}, err
	}
	switch r.Type {
	case TypeCheckpointBegin:
		// No body.
	case TypeBatch:
		if r.Batch, err = decodeBatch(d); err != nil {
			return Record{}, err
		}
	case TypeCheckpointEnd:
		r.Manifest = &Manifest{}
		if r.Manifest.Seq, err = d.Uvarint(); err != nil {
			return Record{}, err
		}
		root, _ := d.Bytes(d.Remaining())
		r.Manifest.Root = bytes.Clone(root)
	case TypeInsert, TypeDelete, TypeUpdate:
		return Record{}, fmt.Errorf("wal: %v is an op tag, not a frame type; mutations are logged as batch frames", r.Type)
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", tag)
	}
	if d.Remaining() != 0 {
		return Record{}, fmt.Errorf("wal: record has %d trailing bytes", d.Remaining())
	}
	return r, nil
}

func decodeBatch(d *attr.Reader) ([]Op, error) {
	// Every op holds at least one row of the frame's dimensionality, a
	// byte or more per column, and costs at least its tag, an ID and that
	// row (attr.MinRowSize).
	dims, err := d.Count(1)
	if err != nil {
		return nil, err
	}
	n, err := d.Count(2 + attr.MinRowSize(dims))
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxVec || dims > maxVec {
		return nil, fmt.Errorf("wal: batch claims %d ops of %d attributes", n, dims)
	}
	ops := make([]Op, n)
	for i := range ops {
		if ops[i], err = decodeOp(d, dims); err != nil {
			return nil, fmt.Errorf("wal: batch op %d: %w", i, err)
		}
	}
	return ops, nil
}

// decodeOp reads one tagged batch operation: deletes and updates carry
// the target's ID and old row, inserts and updates the new record.
func decodeOp(d *attr.Reader, dims int) (Op, error) {
	tag, err := d.Byte()
	if err != nil {
		return Op{}, err
	}
	op := Op{Type: Type(tag)}
	if !op.Type.isOp() {
		return Op{}, fmt.Errorf("wal: op has type %d", tag)
	}
	if op.Type != TypeInsert {
		if op.ID, err = d.Varint(); err != nil {
			return Op{}, err
		}
		op.OldQI = make([]float64, dims)
		if err := d.Row(op.OldQI); err != nil {
			return Op{}, err
		}
	}
	if op.Type != TypeDelete {
		if op.Rec, err = d.Record(make([]float64, dims), op.ID); err != nil {
			return Op{}, err
		}
	}
	return op, nil
}
