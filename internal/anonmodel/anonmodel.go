// Package anonmodel defines the vocabulary every anonymization algorithm
// in this repository shares: the Partition (an equivalence class of
// records published under one generalized box) and the Constraint (the
// pluggable definition of an "allowable partition" — vanilla
// k-anonymity, distinct l-diversity [21], or (α,k)-anonymity [32]).
//
// The paper's position (Section 4) is that the definition of an
// allowable partition is an *input*: "whatever the requirement, [the
// anonymizer] tries to find the smallest bounding box on the k-elements
// that still satisfies the requirements". Keeping Constraint as a small
// interface lets the R⁺-tree split guard, the Mondrian recursion, and
// the leaf-scan grouping all take the same requirement objects.
package anonmodel

import (
	"fmt"
	"strings"

	"spatialanon/internal/attr"
)

// Partition is one equivalence class of an anonymized table: the
// generalized Box every member publishes as its quasi-identifier value,
// plus the member records. For uncompacted anonymizations the Box is
// the partitioning region; after compaction (or for index MBRs) it is
// the tight minimum bounding box. Outside this package and core.Tiling a
// partition is read through Size, Record and Satisfies (rule rowconfine).
type Partition struct {
	Box     attr.Box
	Records []attr.Record
}

// Size returns the number of records in the partition.
//
//anonylint:zero-alloc
func (p Partition) Size() int { return len(p.Records) }

// Record returns the partition's i-th record, 0 <= i < Size().
//
//anonylint:zero-alloc
func (p Partition) Record(i int) attr.Record { return p.Records[i] }

// Satisfies reports whether the partition's records satisfy c.
func (p Partition) Satisfies(c Constraint) bool { return c.Satisfied(p.Records) }

// Validate checks the partition's internal consistency: every record's
// point must lie inside the published box.
func (p Partition) Validate() error {
	for _, r := range p.Records {
		if !p.Box.Contains(r.QI) {
			return fmt.Errorf("anonmodel: record %d at %v outside partition box %v", r.ID, r.QI, p.Box)
		}
	}
	return nil
}

// TotalRecords sums partition sizes.
func TotalRecords(ps []Partition) int {
	n := 0
	for _, p := range ps {
		n += p.Size()
	}
	return n
}

// CheckAnonymity verifies that every partition satisfies the constraint
// and is internally consistent — the invariant every anonymized release
// must satisfy. It returns the first violation.
func CheckAnonymity(ps []Partition, c Constraint) error {
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		if !p.Satisfies(c) {
			return fmt.Errorf("anonmodel: partition %d (%d records) violates %v", i, p.Size(), c)
		}
	}
	return nil
}

// LeafScan is the reference leaf scan of Figure 5: walk base in index
// order with one accumulator, closing a group as soon as the constraint
// is satisfied and publishing it under the union of its members' boxes;
// a final group that cannot satisfy the constraint is absorbed into its
// predecessor (step LS4). Records and boxes are copied, never aliased.
// It is the scan for constraints that inspect record contents and the
// equality oracle for core.Tiling.Scan's planned path.
func LeafScan(base []Partition, constraint Constraint) ([]Partition, error) {
	if len(base) == 0 {
		return nil, nil
	}
	dims := len(base[0].Box)
	var out []Partition
	cur := Partition{Box: attr.NewBox(dims)}
	for _, p := range base {
		cur.Records = append(cur.Records, p.Records...)
		cur.Box.IncludeBox(p.Box)
		if constraint.Satisfied(cur.Records) {
			out = append(out, cur)
			cur = Partition{Box: attr.NewBox(dims)}
		}
	}
	if len(cur.Records) > 0 {
		if len(out) == 0 {
			if !constraint.Satisfied(cur.Records) {
				return nil, fmt.Errorf("leaf scan: %d records cannot satisfy %v", len(cur.Records), constraint)
			}
			out = append(out, cur)
		} else {
			last := &out[len(out)-1]
			last.Records = append(last.Records, cur.Records...)
			last.Box.IncludeBox(cur.Box)
		}
	}
	return out, nil
}

// Constraint decides whether a group of records may be published as one
// partition. Implementations must be monotone in the sense the paper's
// algorithms rely on: adding records to a satisfying group keeps
// k-anonymity satisfied, and the leaf-scan grouping additionally
// requires that unions of satisfying groups satisfy (true for all three
// constraints here).
type Constraint interface {
	Satisfied(recs []attr.Record) bool
	// MinSize is a lower bound on the size of any satisfying group,
	// used by partitioners to prune unsplittable groups early.
	MinSize() int
	fmt.Stringer
}

// Validate rejects constraints whose parameters cannot provide
// anonymity: every algorithm entry point calls it before touching
// data, so a k below 2 — the identity function wearing a privacy
// label — fails in microseconds with one clear message. Constraint
// implementations outside this package may provide their own
// `Validate() error`; those without one are accepted as-is (the
// Constraint interface predates validation and must stay small).
func Validate(c Constraint) error {
	if c == nil {
		return fmt.Errorf("anonmodel: nil constraint")
	}
	if v, ok := c.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// KAnonymity is the vanilla requirement: at least K records per
// partition.
type KAnonymity struct{ K int }

// Satisfied implements Constraint.
func (c KAnonymity) Satisfied(recs []attr.Record) bool { return len(recs) >= c.K }

// MinSize implements Constraint.
func (c KAnonymity) MinSize() int { return c.K }

// Validate rejects K < 2: with K = 1 every record is its own
// equivalence class and the "anonymized" release is the original
// table.
func (c KAnonymity) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("anonmodel: k-anonymity needs k >= 2, got %d", c.K)
	}
	return nil
}

func (c KAnonymity) String() string { return fmt.Sprintf("%d-anonymity", c.K) }

// LDiversity is distinct l-diversity layered on k-anonymity [21]: a
// partition needs at least K records and at least L distinct sensitive
// values.
type LDiversity struct {
	K int
	L int
}

// Satisfied implements Constraint.
func (c LDiversity) Satisfied(recs []attr.Record) bool {
	if len(recs) < c.K {
		return false
	}
	distinct := make(map[string]struct{}, c.L)
	for _, r := range recs {
		distinct[r.Sensitive] = struct{}{}
		if len(distinct) >= c.L {
			return true
		}
	}
	return len(distinct) >= c.L
}

// MinSize implements Constraint.
func (c LDiversity) MinSize() int {
	if c.L > c.K {
		return c.L
	}
	return c.K
}

// Validate rejects K < 2 (no anonymity) and L < 2 (distinct
// l-diversity with one allowed sensitive value adds nothing and is
// invariably a mistyped parameter).
func (c LDiversity) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("anonmodel: l-diversity needs k >= 2, got %d", c.K)
	}
	if c.L < 2 {
		return fmt.Errorf("anonmodel: l-diversity needs l >= 2, got %d", c.L)
	}
	return nil
}

func (c LDiversity) String() string { return fmt.Sprintf("(%d,%d)-k-anonymity+l-diversity", c.K, c.L) }

// AlphaK is (α,k)-anonymity [32]: at least K records, and no single
// sensitive value may account for more than fraction Alpha of the
// partition.
type AlphaK struct {
	K     int
	Alpha float64
}

// Satisfied implements Constraint.
func (c AlphaK) Satisfied(recs []attr.Record) bool {
	if len(recs) < c.K {
		return false
	}
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Sensitive]++
	}
	limit := c.Alpha * float64(len(recs))
	for _, n := range counts {
		if float64(n) > limit {
			return false
		}
	}
	return true
}

// MinSize implements Constraint.
func (c AlphaK) MinSize() int { return c.K }

// Validate rejects K < 2 and Alpha outside (0, 1): alpha >= 1 never
// constrains anything, alpha <= 0 can never be satisfied.
func (c AlphaK) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("anonmodel: (α,k)-anonymity needs k >= 2, got %d", c.K)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("anonmodel: (α,k)-anonymity needs α in (0,1), got %g", c.Alpha)
	}
	return nil
}

func (c AlphaK) String() string { return fmt.Sprintf("(%g,%d)-anonymity", c.Alpha, c.K) }

// All combines constraints conjunctively: a group is allowable only when
// every constituent constraint accepts it. Used when publishing a
// coarser granularity k₁ on top of a base constraint (the leaf-scan
// algorithm requires both).
type All []Constraint

// Satisfied implements Constraint.
func (cs All) Satisfied(recs []attr.Record) bool {
	for _, c := range cs {
		if !c.Satisfied(recs) {
			return false
		}
	}
	return true
}

// MinSize implements Constraint.
func (cs All) MinSize() int {
	m := 1
	for _, c := range cs {
		if s := c.MinSize(); s > m {
			m = s
		}
	}
	return m
}

// Validate validates every constituent constraint.
func (cs All) Validate() error {
	if len(cs) == 0 {
		return fmt.Errorf("anonmodel: empty constraint conjunction")
	}
	for _, c := range cs {
		if err := Validate(c); err != nil {
			return err
		}
	}
	return nil
}

func (cs All) String() string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, "+")
}
