package dataset

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"spatialanon/internal/attr"
)

// BinaryCodec encodes records in the fixed-width binary layout the paper
// reports: one unsigned 32-bit little-endian integer per quasi-identifier
// attribute, so Lands End records occupy 32 bytes and Agrawal records 36
// bytes — the bare fixed layout of the repository's row codec
// (attr.PutFixedRow). The sensitive value is not part of the binary
// layout (the paper's two large data sets treat every attribute as
// quasi-identifier).
type BinaryCodec struct {
	dims int
}

// NewBinaryCodec returns a codec for records with the given number of
// quasi-identifier attributes.
func NewBinaryCodec(dims int) *BinaryCodec { return &BinaryCodec{dims: dims} }

// RecordSize returns the encoded size of one record in bytes.
func (c *BinaryCodec) RecordSize() int { return attr.FixedRowSize(c.dims) }

// Encode writes the record's QI values into buf, which must be at least
// RecordSize() bytes. A value the layout cannot hold exactly — a
// fraction, a negative, 2³² or more — is an error, never a truncation.
func (c *BinaryCodec) Encode(r attr.Record, buf []byte) error {
	if len(r.QI) != c.dims {
		return fmt.Errorf("dataset: record has %d attributes, codec expects %d", len(r.QI), c.dims)
	}
	if err := attr.PutFixedRow(buf, r.QI); err != nil {
		return fmt.Errorf("dataset: record %d: %w", r.ID, err)
	}
	return nil
}

// Decode reads one record from buf. The record ID must be assigned by the
// caller (binary files carry no IDs; position is identity).
func (c *BinaryCodec) Decode(buf []byte) (attr.Record, error) {
	qi := make([]float64, c.dims)
	if err := attr.FixedRow(qi, buf); err != nil {
		return attr.Record{}, fmt.Errorf("dataset: %w", err)
	}
	return attr.Record{QI: qi}, nil
}

// WriteBinary streams all records from s to w in the fixed-width layout,
// drawing them writeBatch at a time through NextBatch, so generation
// runs on all cores and holds at most one batch in memory. It returns
// the number of records written.
func (c *BinaryCodec) WriteBinary(w io.Writer, s *Stream) (int, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, c.RecordSize())
	n := 0
	for batch := s.NextBatch(writeBatch); len(batch) > 0; batch = s.NextBatch(writeBatch) {
		for _, r := range batch {
			if err := c.Encode(r, buf); err != nil {
				return n, err
			}
			if _, err := bw.Write(buf); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, bw.Flush()
}

// writeBatch is how many records WriteBinary generates at a time: eight
// chunks, a few megabytes of records.
const writeBatch = 8 * rowBlock

// ReadBinary reads every record from r, assigning sequential IDs from 0.
func (c *BinaryCodec) ReadBinary(r io.Reader) ([]attr.Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	buf := make([]byte, c.RecordSize())
	var out []attr.Record
	for id := int64(0); ; id++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF {
				return out, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("dataset: truncated record at id %d", id)
			}
			return nil, err
		}
		rec, err := c.Decode(buf)
		if err != nil {
			return nil, err
		}
		rec.ID = id
		out = append(out, rec)
	}
}

// WriteCSV writes records as CSV with a header row of attribute names
// (plus the sensitive attribute name when the schema declares one).
func WriteCSV(w io.Writer, s *attr.Schema, recs []attr.Record) error {
	cw := csv.NewWriter(w)
	header := s.Names()
	if s.Sensitive != "" {
		header = append(header, s.Sensitive)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, r := range recs {
		if len(r.QI) != s.Dims() {
			return fmt.Errorf("dataset: record %d has %d attributes, schema has %d", r.ID, len(r.QI), s.Dims())
		}
		row = row[:0]
		for _, v := range r.QI {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if s.Sensitive != "" {
			row = append(row, r.Sensitive)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads records written by WriteCSV (or any CSV whose first
// columns are the schema's attributes, with an optional trailing
// sensitive column). IDs are assigned sequentially from 0.
func ReadCSV(r io.Reader, s *attr.Schema) ([]attr.Record, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	header := rows[0]
	wantCols := s.Dims()
	if s.Sensitive != "" {
		wantCols++
	}
	if len(header) < wantCols {
		return nil, fmt.Errorf("dataset: CSV has %d columns, schema needs %d", len(header), wantCols)
	}
	for i, a := range s.Attrs {
		if header[i] != a.Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", i, header[i], a.Name)
		}
	}
	out := make([]attr.Record, 0, len(rows)-1)
	for ri, row := range rows[1:] {
		if len(row) < wantCols {
			return nil, fmt.Errorf("dataset: row %d has %d fields, need %d", ri+1, len(row), wantCols)
		}
		qi := make([]float64, s.Dims())
		for i := range qi {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d column %q: %w", ri+1, s.Attrs[i].Name, err)
			}
			// ParseFloat accepts "NaN" and "Inf"; neither has a place in a
			// half-open spatial domain (NaN breaks every comparison, Inf
			// collides with the index's unbounded routing regions).
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: row %d column %q: non-finite value %q", ri+1, s.Attrs[i].Name, row[i])
			}
			qi[i] = v
		}
		rec := attr.Record{ID: int64(ri), QI: qi}
		if s.Sensitive != "" {
			rec.Sensitive = row[s.Dims()]
		}
		out = append(out, rec)
	}
	return out, nil
}
