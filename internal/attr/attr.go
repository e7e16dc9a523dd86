// Package attr defines the attribute model shared by every subsystem:
// schemas over numeric and categorical quasi-identifier attributes,
// records, closed intervals, multidimensional boxes (minimum bounding
// rectangles), and generalization hierarchies for categorical attributes.
//
// Following the paper (Section 5), categorical attributes are coded onto
// the integers by "imposing an intuitive ordering" on their values, so all
// values — numeric and categorical alike — travel as float64. A
// categorical attribute may optionally carry a generalization Hierarchy;
// when present, interval generalizations can be lifted to the lowest
// common ancestor of the covered leaves (used by the compaction procedure
// of Section 4 and by the certainty penalty of Section 5.3).
package attr

import (
	"fmt"
	"math"
	"strings"
)

// Kind distinguishes numeric from categorical quasi-identifier attributes.
type Kind int

const (
	// Numeric attributes take ordered numeric values; generalized values
	// are ranges.
	Numeric Kind = iota
	// Categorical attributes take values from a finite coded domain;
	// generalized values are coded ranges, optionally lifted into a
	// generalization hierarchy.
	Categorical
)

// String returns "numeric" or "categorical".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one quasi-identifier attribute.
type Attribute struct {
	Name string
	Kind Kind
	// Weight is the importance w_i used by the weighted normalized
	// certainty penalty (Definition 4) and by weighted splitting
	// policies. The zero value is treated as 1.
	Weight float64
	// Hierarchy is an optional generalization hierarchy for a
	// categorical attribute. When nil, categorical generalizations stay
	// as coded ranges, exactly as in the paper's experimental setup.
	Hierarchy *Hierarchy
}

// EffectiveWeight returns the attribute weight, defaulting to 1.
func (a Attribute) EffectiveWeight() float64 {
	if a.Weight == 0 {
		return 1
	}
	return a.Weight
}

// Schema describes the quasi-identifier attributes of a table plus the
// name of the single sensitive attribute carried alongside each record.
type Schema struct {
	Attrs     []Attribute
	Sensitive string
}

// Dims returns the number of quasi-identifier attributes.
func (s *Schema) Dims() int { return len(s.Attrs) }

// AttrIndex returns the index of the named quasi-identifier attribute, or
// -1 if the schema has no such attribute.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the quasi-identifier attribute names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// Validate reports an error if the schema is missing or malformed: a
// nil schema, no attributes, duplicate names, or a hierarchy attached to
// a numeric attribute.
func (s *Schema) Validate() error {
	if s == nil {
		return fmt.Errorf("attr: nil schema")
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("attr: schema has no quasi-identifier attributes")
	}
	seen := make(map[string]bool, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("attr: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("attr: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Kind == Numeric && a.Hierarchy != nil {
			return fmt.Errorf("attr: numeric attribute %q has a hierarchy", a.Name)
		}
		if a.Weight < 0 {
			return fmt.Errorf("attr: attribute %q has negative weight %v", a.Name, a.Weight)
		}
	}
	return nil
}

// Record is one row of the private table: an ID, the coded
// quasi-identifier values, and the sensitive value.
type Record struct {
	ID        int64
	QI        []float64
	Sensitive string
}

// ValidateQI is the rule for a point entering an index: it has dims
// coordinates and every one is finite. NaN fails every comparison a
// split or a route makes, and an infinity lies outside every region a
// split can cut, so neither has a place in a tree, a log or a checkpoint.
func ValidateQI(dims int, qi []float64) error {
	if len(qi) != dims {
		return fmt.Errorf("record has %d attributes, schema has %d", len(qi), dims)
	}
	for i, v := range qi {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("record coordinate %d is not finite (%v)", i, v)
		}
	}
	return nil
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	qi := make([]float64, len(r.QI))
	copy(qi, r.QI)
	return Record{ID: r.ID, QI: qi, Sensitive: r.Sensitive}
}

// Interval is a closed interval [Lo, Hi] on one attribute. The canonical
// empty interval has Lo > Hi (see EmptyInterval).
type Interval struct {
	Lo, Hi float64
}

// EmptyInterval returns the canonical empty interval, which Include grows
// correctly from.
func EmptyInterval() Interval {
	return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// IsEmpty reports whether the interval contains no points.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Width returns Hi-Lo, or 0 for an empty interval. A single point has
// width 0.
//
//anonylint:zero-alloc
func (iv Interval) Width() float64 {
	if iv.IsEmpty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether v lies in the closed interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Intersects reports whether the two closed intervals share a point.
func (iv Interval) Intersects(o Interval) bool {
	if iv.IsEmpty() || o.IsEmpty() {
		return false
	}
	return iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	out := Interval{Lo: math.Max(iv.Lo, o.Lo), Hi: math.Min(iv.Hi, o.Hi)}
	if out.IsEmpty() {
		return EmptyInterval()
	}
	return out
}

// Union returns the smallest interval covering both inputs.
func (iv Interval) Union(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, o.Lo), Hi: math.Max(iv.Hi, o.Hi)}
}

// Include returns the interval grown to cover v.
func (iv Interval) Include(v float64) Interval {
	if iv.IsEmpty() {
		return Interval{Lo: v, Hi: v}
	}
	return Interval{Lo: math.Min(iv.Lo, v), Hi: math.Max(iv.Hi, v)}
}

// String renders the interval like the paper's tables: a single value for
// points, "[lo - hi]" otherwise.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[]"
	}
	if iv.Lo == iv.Hi {
		return trimFloat(iv.Lo)
	}
	return "[" + trimFloat(iv.Lo) + " - " + trimFloat(iv.Hi) + "]"
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Box is an axis-aligned multidimensional rectangle: one closed interval
// per quasi-identifier attribute. It is the in-memory form of both an
// R-tree minimum bounding rectangle and a generalized (anonymized)
// record value.
type Box []Interval

// NewBox returns an empty box with the given dimensionality.
func NewBox(dims int) Box {
	b := make(Box, dims)
	for i := range b {
		b[i] = EmptyInterval()
	}
	return b
}

// PointBox returns the degenerate box covering exactly the point p.
func PointBox(p []float64) Box {
	b := make(Box, len(p))
	for i, v := range p {
		b[i] = Interval{Lo: v, Hi: v}
	}
	return b
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	out := make(Box, len(b))
	copy(out, b)
	return out
}

// IsEmpty reports whether any dimension is empty (so the box contains no
// points). A zero-dimensional box is considered empty.
//
//anonylint:zero-alloc
func (b Box) IsEmpty() bool {
	if len(b) == 0 {
		return true
	}
	for _, iv := range b {
		if iv.IsEmpty() {
			return true
		}
	}
	return false
}

// Cells counts the box's cells on the integer lattice: per axis,
// round(width)+1. It is the volume the uniform estimator
// (query.EstimateUniform, routing.Index.Estimate) divides by and the
// KL-divergence metric spreads a partition over.
//
//anonylint:zero-alloc
func (b Box) Cells() float64 {
	c := 1.0
	for _, iv := range b {
		w := math.Round(iv.Hi - iv.Lo)
		if w < 0 {
			w = 0
		}
		c *= w + 1
	}
	return c
}

// Contains reports whether the point p lies inside the box.
//
//anonylint:zero-alloc
func (b Box) Contains(p []float64) bool {
	if len(p) != len(b) {
		return false
	}
	for i, iv := range b {
		if !iv.Contains(p[i]) {
			return false
		}
	}
	return true
}

// Intersects reports whether the two boxes share a point. A record's
// generalized box "matches" a range query exactly when this is true
// (Section 5.4).
//
//anonylint:zero-alloc
func (b Box) Intersects(o Box) bool {
	if len(b) != len(o) || b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i, iv := range b {
		if !iv.Intersects(o[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of the two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	out := make(Box, len(b))
	for i, iv := range b {
		out[i] = iv.Intersect(o[i])
	}
	return out
}

// Union returns the smallest box covering both inputs.
func (b Box) Union(o Box) Box {
	if len(b) == 0 {
		return o.Clone()
	}
	if len(o) == 0 {
		return b.Clone()
	}
	out := make(Box, len(b))
	for i, iv := range b {
		out[i] = iv.Union(o[i])
	}
	return out
}

// Include grows the box in place to cover the point p and returns it.
// It is the hottest operation in the index (every insert updates the
// MBRs of the whole root path), so it uses plain comparisons rather
// than math.Min/Max.
func (b Box) Include(p []float64) Box {
	for i := range b {
		v := p[i]
		iv := &b[i]
		if iv.Lo > iv.Hi { // empty interval
			iv.Lo, iv.Hi = v, v
			continue
		}
		if v < iv.Lo {
			iv.Lo = v
		} else if v > iv.Hi {
			iv.Hi = v
		}
	}
	return b
}

// IncludeBox grows the box in place to cover o and returns it.
func (b Box) IncludeBox(o Box) Box {
	for i := range b {
		b[i] = b[i].Union(o[i])
	}
	return b
}

// Equal reports exact equality of the two boxes.
func (b Box) Equal(o Box) bool {
	if len(b) != len(o) {
		return false
	}
	for i, iv := range b {
		if iv != o[i] {
			return false
		}
	}
	return true
}

// String renders the box as a comma-separated list of intervals.
func (b Box) String() string {
	parts := make([]string, len(b))
	for i, iv := range b {
		parts[i] = iv.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DomainOf computes the full extent of a set of records: the MBR of the
// whole table, used to normalize the certainty penalty and to seed
// top-down partitioners.
func DomainOf(dims int, records []Record) Box {
	b := NewBox(dims)
	for _, r := range records {
		b.Include(r.QI)
	}
	return b
}
