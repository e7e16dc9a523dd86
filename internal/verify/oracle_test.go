package verify

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/sfc"
)

// The map-based auditors this package shipped before the flat ID table,
// kept as the differential oracle (reading partitions through their
// methods): whatever family of releases the index-based auditors accept
// or reject, these must too, for the same class of violation.

func oracleRelease(ps []anonmodel.Partition, c anonmodel.Constraint) error {
	if c == nil {
		return fmt.Errorf("verify: nil constraint")
	}
	seen := make(map[int64]int)
	for i, p := range ps {
		if p.Size() == 0 {
			return fmt.Errorf("verify: partition %d is empty", i)
		}
		if !p.Satisfies(c) {
			return fmt.Errorf("verify: partition %d (%d records) violates %v", i, p.Size(), c)
		}
		for j := range p.Size() {
			r := p.Record(j)
			if !p.Box.Contains(r.QI) {
				return fmt.Errorf("verify: record %d at %v outside partition %d box %v", r.ID, r.QI, i, p.Box)
			}
			if prev, dup := seen[r.ID]; dup {
				return fmt.Errorf("verify: record %d published in partitions %d and %d", r.ID, prev, i)
			}
			seen[r.ID] = i
		}
	}
	return nil
}

func oracleReleases(sets [][]anonmodel.Partition, k int) error {
	if len(sets) == 0 {
		return nil
	}
	// Record ID -> partition index per release.
	assign := make(map[int64][]int)
	for ri, rel := range sets {
		for pi, p := range rel {
			for i := range p.Size() {
				r := p.Record(i)
				cell, ok := assign[r.ID]
				if !ok {
					cell = make([]int, len(sets))
					for i := range cell {
						cell[i] = -1
					}
					assign[r.ID] = cell
				}
				if cell[ri] != -1 {
					return fmt.Errorf("verify: record %d in two partitions of release %d", r.ID, ri)
				}
				cell[ri] = pi
			}
		}
	}
	cells := make(map[string]int)
	for id, cell := range assign {
		for ri, pi := range cell {
			if pi == -1 {
				return fmt.Errorf("verify: record %d missing from release %d", id, ri)
			}
		}
		cells[fmt.Sprint(cell)]++
	}
	for key, n := range cells {
		if n < k {
			return fmt.Errorf("verify: intersection cell %s holds %d records, below k=%d", key, n, k)
		}
	}
	return nil
}

// oracleCrossShardRecords is the record half of the old CrossShard: a
// Release audit per view, then a second map for cross-view uniqueness
// and the seam rule.
func oracleCrossShardRecords(views []ShardView, quant *sfc.Quantizer, curve sfc.Curve, k int) error {
	constraint := anonmodel.KAnonymity{K: k}
	seen := make(map[int64]int)
	var cell []uint32
	for vi, v := range views {
		if err := oracleRelease(v.Parts, constraint); err != nil {
			return fmt.Errorf("verify: shard view %d (range %v): %w", vi, v.Range, err)
		}
		for pi, p := range v.Parts {
			for i := range p.Size() {
				r := p.Record(i)
				if prev, dup := seen[r.ID]; dup {
					return fmt.Errorf("verify: record %d published by shard views %d and %d", r.ID, prev, vi)
				}
				seen[r.ID] = vi
				var key uint64
				key, cell = quant.KeyInto(curve, r.QI, cell)
				if !v.Range.Contains(key) {
					return fmt.Errorf("verify: record %d (key %#x) in partition %d of shard view %d escapes range %v", r.ID, key, pi, vi, v.Range)
				}
			}
		}
	}
	return nil
}

// class names the kind of violation an auditor reported.
func class(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct{ marker, class string }{
		{"is empty", "empty"},
		{"violates", "under-k"},
		{"outside partition", "outside-box"},
		{"published in partitions", "twice"},
		{"published by shard views", "twice-across-views"},
		{"escapes range", "seam"},
		{"in two partitions of release", "twice"},
		{"missing from release", "missing"},
		{"intersection cell", "cell"},
	} {
		if strings.Contains(err.Error(), c.marker) {
			return c.class
		}
	}
	return "other: " + err.Error()
}

// fibInverse is the multiplicative inverse of the table's hash
// multiplier mod 2^64: fibInverse*x hashes to the top bits of x, which
// lets a test pick the slot an ID lands in.
var fibInverse = func() uint64 {
	const c = uint64(0x9E3779B97F4A7C15)
	inv := c // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}()

// adversarialID spreads small x over the ID shapes the table must
// survive: dense small integers, negatives, IDs differing only in
// their high bits, whole runs hashing to slot 0 (one long probe
// chain), runs hashing to the last slots (chains that wrap), and the
// two extreme int64s.
func adversarialID(mode, x uint8) int64 {
	switch mode % 6 {
	case 0:
		return int64(x)
	case 1:
		return -int64(x) - 1
	case 2:
		return int64(x) << 56
	case 3:
		return int64(fibInverse * uint64(x))
	case 4:
		return int64(fibInverse * ^uint64(x))
	default:
		if x%2 == 0 {
			return math.MinInt64 + int64(x/2)
		}
		return math.MaxInt64 - int64(x/2)
	}
}

// nestedFamily builds a valid multi-granular family over ids: release
// 0 cuts them into consecutive groups of the given sizes, and each
// later release merges runs of the previous one's partitions (merge[r]
// lists release r+1's run lengths). Record i sits at QI {i}; boxes are
// tight. Every partition owns its records.
func nestedFamily(ids []int64, sizes []int, merges [][]int) [][]anonmodel.Partition {
	var rel []anonmodel.Partition
	next := 0
	for _, n := range sizes {
		var recs []attr.Record
		for i := next; i < next+n; i++ {
			recs = append(recs, attr.Record{ID: ids[i], QI: []float64{float64(i)}})
		}
		next += n
		rel = append(rel, anonmodel.Partition{Box: attr.DomainOf(1, recs), Records: recs})
	}
	sets := [][]anonmodel.Partition{rel}
	for _, runs := range merges {
		var coarse []anonmodel.Partition
		at := 0
		for _, run := range runs {
			var recs []attr.Record
			box := attr.NewBox(1)
			for _, q := range rel[at : at+run] {
				recs = append(recs, rows(q)...)
				box.IncludeBox(q.Box)
			}
			at += run
			coarse = append(coarse, anonmodel.Partition{Box: box, Records: recs})
		}
		sets = append(sets, coarse)
		rel = coarse
	}
	return sets
}

// randomFamily draws a valid family: 1–4 releases, 4–12 base groups of
// k..2k records, adversarial unique IDs.
func randomFamily(rng *rand.Rand) (sets [][]anonmodel.Partition, k int) {
	k = 2 + rng.Intn(4)
	sizes := make([]int, 4+rng.Intn(9))
	n := 0
	for i := range sizes {
		sizes[i] = k + rng.Intn(k+1)
		n += sizes[i]
	}
	taken := map[int64]bool{}
	ids := make([]int64, 0, n)
	for len(ids) < n {
		id := adversarialID(uint8(rng.Intn(6)), uint8(rng.Intn(256)))
		if !taken[id] {
			taken[id] = true
			ids = append(ids, id)
		}
	}
	var merges [][]int
	parts := len(sizes)
	for r := rng.Intn(4); r > 0 && parts >= 2; r-- {
		var runs []int
		// Leave at least two partitions so a boundary exists to cross.
		for left := parts; left > 0; {
			run := 1 + rng.Intn(min(3, left))
			if len(runs) == 0 && run == left {
				run = left - 1
			}
			runs = append(runs, run)
			left -= run
		}
		merges = append(merges, runs)
		parts = len(runs)
	}
	return nestedFamily(ids, sizes, merges), k
}

const (
	injectNothing = iota
	injectOutsideBox
	injectUnderK
	injectEmpty
	injectTwiceInPartition
	injectTwiceAcrossPartitions
	injectMissing
	injectCrossedCells
	injections
)

// inject plants one violation in release ri of the family.
func inject(rng *rand.Rand, sets [][]anonmodel.Partition, k, ri, what int) {
	rel := sets[ri]
	pi := rng.Intn(len(rel))
	p := &rel[pi]
	recs := rows(*p)
	switch what {
	case injectOutsideBox:
		recs[rng.Intn(len(recs))].QI = []float64{p.Box[0].Hi + 1}
	case injectUnderK:
		recs = recs[:k-1]
	case injectEmpty:
		recs = nil
	case injectTwiceInPartition:
		recs = append(recs, recs[rng.Intn(len(recs))])
	case injectTwiceAcrossPartitions:
		q := &rel[(pi+1)%len(rel)]
		*q = anonmodel.Partition{Box: q.Box, Records: append(rows(*q), recs[rng.Intn(len(recs))])}
		q.Box.IncludeBox(p.Box)
	case injectMissing:
		i := rng.Intn(len(recs))
		recs = append(recs[:i:i], recs[i+1:]...)
	case injectCrossedCells:
		// Move one boundary by one record: the moved record is alone in
		// the cell (its old base partition, its new coarse partition).
		pi = rng.Intn(len(rel) - 1)
		p = &rel[pi]
		recs = moveLast(p, &rel[pi+1])
	}
	*p = anonmodel.Partition{Box: p.Box, Records: recs}
}

// rows copies p's records out, for a test that rebuilds the partition.
func rows(p anonmodel.Partition) []attr.Record {
	out := make([]attr.Record, p.Size())
	for i := range out {
		out[i] = p.Record(i)
	}
	return out
}

// moveLast moves p's last record to the front of q, widening q's box,
// and returns p's remaining records.
func moveLast(p, q *anonmodel.Partition) []attr.Record {
	recs := rows(*p)
	last := recs[len(recs)-1]
	*q = anonmodel.Partition{Box: q.Box, Records: append([]attr.Record{last}, rows(*q)...)}
	q.Box.Include(last.QI)
	return recs[:len(recs)-1]
}

// auditBothPaths audits sets twice, as they are and relabelled onto a
// dense run of IDs (the bitmap path), each time beside the map-based
// oracle: Release to the very message, Releases to the class of
// violation. Across the two runs every verdict and witness must match
// once the IDs are mapped. It returns the first run's verdicts.
func auditBothPaths(t testing.TB, sets [][]anonmodel.Partition, k int) (release []error, releases error) {
	t.Helper()
	c := anonmodel.KAnonymity{K: k}
	ids := denseIDs(sets)
	dense := relabel(sets, ids)
	if len(ids) > 0 && !bitmapPath(dense...) {
		t.Fatalf("a dense run of IDs takes the table path")
	}
	for i := range sets {
		for _, rel := range [][]anonmodel.Partition{sets[i], dense[i]} {
			if got, want := Release(rel, c), oracleRelease(rel, c); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("release %d: Release says %v, oracle says %v", i, got, want)
			}
		}
		got := Release(sets[i], c)
		if want, dgot := relabelErr(got, ids), fmt.Sprint(Release(dense[i], c)); dgot != want {
			t.Fatalf("release %d: Release says %s on dense IDs, %s as relabelled", i, dgot, want)
		}
		release = append(release, got)
	}
	for _, fam := range [][][]anonmodel.Partition{sets, dense} {
		if got, want := Releases(fam, k), oracleReleases(fam, k); class(got) != class(want) {
			t.Fatalf("Releases says %v, oracle says %v", got, want)
		}
	}
	releases = Releases(sets, k)
	if want, dgot := relabelErr(releases, ids), fmt.Sprint(Releases(dense, k)); dgot != want {
		t.Fatalf("Releases says %s on dense IDs, %s as relabelled", dgot, want)
	}
	return release, releases
}

// bitmapPath reports whether Releases' ID index over sets takes the
// dense shape (for one release, Release's too).
func bitmapPath(sets ...[]anonmodel.Partition) bool {
	lo, hi, n := int64(math.MaxInt64), int64(math.MinInt64), 0
	for _, rel := range sets {
		lo, hi = idRange(rel, lo, hi)
		n = max(n, anonmodel.TotalRecords(rel))
	}
	ix := newIDIndex(lo, hi, n)
	return ix.words != nil
}

// denseIDs maps the family's distinct IDs, in ascending order, onto
// the run -3, -2, -1, 0, …
func denseIDs(sets [][]anonmodel.Partition) map[int64]int64 {
	var ids []int64
	for _, rel := range sets {
		for _, p := range rel {
			for i := range p.Size() {
				ids = append(ids, p.Record(i).ID)
			}
		}
	}
	slices.Sort(ids)
	m := make(map[int64]int64)
	for _, id := range slices.Compact(ids) {
		m[id] = int64(len(m)) - 3
	}
	return m
}

// relabel copies sets with every record ID mapped through ids.
func relabel(sets [][]anonmodel.Partition, ids map[int64]int64) [][]anonmodel.Partition {
	out := make([][]anonmodel.Partition, len(sets))
	for ri, rel := range sets {
		for _, p := range rel {
			recs := rows(p)
			for i := range recs {
				recs[i].ID = ids[recs[i].ID]
			}
			out[ri] = append(out[ri], anonmodel.Partition{Box: p.Box, Records: recs})
		}
	}
	return out
}

var recordID = regexp.MustCompile(`record (-?[0-9]+)`)

// relabelErr renders err with the record ID it names mapped through ids.
func relabelErr(err error, ids map[int64]int64) string {
	if err == nil {
		return fmt.Sprint(err)
	}
	return recordID.ReplaceAllStringFunc(err.Error(), func(m string) string {
		id, _ := strconv.ParseInt(recordID.FindStringSubmatch(m)[1], 10, 64)
		return fmt.Sprintf("record %d", ids[id])
	})
}

// TestAuditorsAgreeWithOracle is the differential test: seeded
// families, each valid or carrying one injected violation, audited by
// the auditors on both ID paths and by the map-based oracle. They must
// agree on accept/reject and on the class of violation — for Release,
// whose order of checks the oracle shares, on the very message.
func TestAuditorsAgreeWithOracle(t *testing.T) {
	caught := map[int]int{}
	for seed := int64(0); seed < 1600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets, k := randomFamily(rng)
		what := int(seed) % injections
		ri := rng.Intn(len(sets))
		if what == injectCrossedCells {
			if len(sets) < 2 {
				what = injectNothing
			} else {
				ri = 1 + rng.Intn(len(sets)-1)
			}
		}
		inject(rng, sets, k, ri, what)

		if bitmapPath(sets...) {
			t.Fatalf("seed %d: adversarial IDs take the bitmap path", seed)
		}
		releaseErrs, got := auditBothPaths(t, sets, k)
		releaseClass := class(releaseErrs[ri])

		// The injection must have been noticed by the auditor whose job
		// it is, or the agreement above proves nothing.
		wantRelease, wantFamily := "", ""
		switch what {
		case injectNothing:
			wantRelease, wantFamily = "ok", "ok"
		case injectOutsideBox:
			wantRelease = "outside-box"
		case injectUnderK:
			wantRelease = "under-k"
		case injectEmpty:
			wantRelease = "empty"
		case injectTwiceInPartition, injectTwiceAcrossPartitions:
			wantRelease, wantFamily = "twice", "twice"
		case injectMissing:
			if len(sets) > 1 {
				wantFamily = "missing"
			}
		case injectCrossedCells:
			wantFamily = "cell"
		}
		if wantRelease != "" && releaseClass != wantRelease {
			t.Fatalf("seed %d: injection %d into release %d: Release reported %q, want %q", seed, what, ri, releaseClass, wantRelease)
		}
		if wantFamily != "" && class(got) != wantFamily {
			t.Fatalf("seed %d: injection %d into release %d: Releases reported %v, want %q", seed, what, ri, got, wantFamily)
		}
		caught[what]++
	}
	for what := 0; what < injections; what++ {
		if caught[what] < 100 {
			t.Errorf("injection %d exercised only %d times", what, caught[what])
		}
	}
}

// TestIDIndexShapes audits families whose IDs sit on the edges of the
// bitmap shape: a span of exactly 64 values per record (bitmap), one
// more (table), both at either end of int64, and the whole int64 range,
// whose width hi − lo + 1 wraps to 0. Each is audited valid and with
// every injected violation, on its own IDs and relabelled dense.
func TestIDIndexShapes(t *testing.T) {
	const n = 40 // 8 base groups of 5, paired, then one partition
	const span = 64 * n
	cases := []struct {
		name   string
		lo, hi int64
		bitmap bool
	}{
		{"64n", 0, span - 1, true},
		{"64n+1", 0, span, false},
		{"64n from MinInt64", math.MinInt64, math.MinInt64 + span - 1, true},
		{"64n+1 from MinInt64", math.MinInt64, math.MinInt64 + span, false},
		{"64n to MaxInt64", math.MaxInt64 - span + 1, math.MaxInt64, true},
		{"64n+1 to MaxInt64", math.MaxInt64 - span, math.MaxInt64, false},
		{"MinInt64 to MaxInt64", math.MinInt64, math.MaxInt64, false},
	}
	for _, tc := range cases {
		// lo, lo+64, lo+128, … and hi, shuffled so that neither ID order
		// nor first-seen order is walk order.
		ids := make([]int64, n)
		for i := range ids[:n-1] {
			ids[i] = int64(uint64(tc.lo) + 64*uint64(i))
		}
		ids[n-1] = tc.hi
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for what := 0; what < injections; what++ {
			sets := nestedFamily(ids, []int{5, 5, 5, 5, 5, 5, 5, 5}, [][]int{{2, 2, 2, 2}, {4}})
			if got := bitmapPath(sets...); got != tc.bitmap {
				t.Fatalf("%s: bitmap path %v, want %v", tc.name, got, tc.bitmap)
			}
			rng := rand.New(rand.NewSource(int64(what)))
			inject(rng, sets, 5, 1, what)
			release, releases := auditBothPaths(t, sets, 5)
			if what == injectNothing && (releases != nil || slices.ContainsFunc(release, func(err error) bool { return err != nil })) {
				t.Fatalf("%s: valid family rejected: %v, %v", tc.name, release, releases)
			}
			if what != injectNothing && releases == nil && release[1] == nil {
				t.Fatalf("%s: injection %d not caught", tc.name, what)
			}
		}
	}
}

// TestAuditWitnessIsDeterministic: a family with several violations of
// one class names the first of them in (release, partition, record)
// order, every time. The map-based auditors named whichever their map
// iteration met first.
func TestAuditWitnessIsDeterministic(t *testing.T) {
	ids := make([]int64, 40)
	for i := range ids {
		ids[i] = int64(1000 - 7*i)
	}
	fresh := func() [][]anonmodel.Partition {
		// 8 base groups of 5; release 1 pairs them up; release 2 is one
		// partition.
		return nestedFamily(ids, []int{5, 5, 5, 5, 5, 5, 5, 5}, [][]int{{2, 2, 2, 2}, {4}})
	}
	publish := func(p *anonmodel.Partition, r attr.Record) {
		*p = anonmodel.Partition{Box: p.Box, Records: append(rows(*p), r)}
	}
	drop := func(p *anonmodel.Partition, i int) {
		recs := rows(*p)
		*p = anonmodel.Partition{Box: p.Box, Records: append(recs[:i:i], recs[i+1:]...)}
	}
	cases := []struct {
		name   string
		break_ func(sets [][]anonmodel.Partition)
		audit  func(sets [][]anonmodel.Partition) error
		want   string
	}{
		{
			name: "missing",
			break_: func(sets [][]anonmodel.Partition) {
				drop(&sets[1][3], 7) // record 37 (ID 741)
				drop(&sets[1][1], 2) // record 12 (ID 916): earlier in release 0
				drop(&sets[2][0], 30)
			},
			audit: func(sets [][]anonmodel.Partition) error { return Releases(sets, 5) },
			want:  "verify: record 916 missing from release 1",
		},
		{
			name: "cell",
			break_: func(sets [][]anonmodel.Partition) {
				// Shift two boundaries of release 1 by one record each.
				for _, pi := range []int{2, 0} {
					p := &sets[1][pi]
					*p = anonmodel.Partition{Box: p.Box, Records: moveLast(p, &sets[1][pi+1])}
				}
			},
			audit: func(sets [][]anonmodel.Partition) error { return Releases(sets, 5) },
			// Base partition 1 splits into 4 records staying in coarse
			// partition 0 and 1 record moved to coarse partition 1; the
			// 4-record cell holds the earlier record.
			want: "verify: intersection cell [1 0 0] holds 4 records, below k=5",
		},
		{
			name: "twice in a family",
			break_: func(sets [][]anonmodel.Partition) {
				publish(&sets[1][2], sets[1][0].Record(3))
				publish(&sets[1][1], sets[1][0].Record(1))
			},
			audit: func(sets [][]anonmodel.Partition) error { return Releases(sets, 5) },
			want:  "verify: record 993 in two partitions of release 1",
		},
		{
			name: "twice in a release",
			break_: func(sets [][]anonmodel.Partition) {
				publish(&sets[0][6], sets[0][2].Record(0))
				publish(&sets[0][4], sets[0][3].Record(1))
			},
			audit: func(sets [][]anonmodel.Partition) error {
				for i := range sets[0] {
					sets[0][i].Box = attr.Box{{Lo: 0, Hi: 40}}
				}
				return Release(sets[0], anonmodel.KAnonymity{K: 5})
			},
			want: "verify: record 888 published in partitions 3 and 4",
		},
	}
	for _, tc := range cases {
		for i := 0; i < 50; i++ {
			sets := fresh()
			tc.break_(sets)
			err := tc.audit(sets)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, audit %d: got %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// crossShardFixture is a two-shard fleet over the 1-D domain [0, 1024):
// keys are the coordinates themselves, shard 0 owns [0, 511].
func crossShardFixture(t testing.TB) (table []KeyRange, quant *sfc.Quantizer) {
	t.Helper()
	quant, err := sfc.NewQuantizer(attr.Box{{Lo: 0, Hi: 1023}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return []KeyRange{{0, 511}, {512, 1023}}, quant
}

// shardPart is a partition of records (ID, coordinate) pairs.
func shardPart(pairs ...int) anonmodel.Partition {
	var recs []attr.Record
	for i := 0; i < len(pairs); i += 2 {
		recs = append(recs, attr.Record{ID: int64(pairs[i]), QI: []float64{float64(pairs[i+1])}})
	}
	return anonmodel.Partition{Box: attr.DomainOf(1, recs), Records: recs}
}

// TestCrossShardRecordAudit drives the one-index record pass of
// CrossShard through every violation it must catch, beside the old
// per-view-maps implementation, and checks the witness is stable and
// the same on both ID paths.
func TestCrossShardRecordAudit(t *testing.T) {
	table, quant := crossShardFixture(t)
	views := func(parts0, parts1 []anonmodel.Partition) []ShardView {
		return []ShardView{{Range: table[0], Parts: parts0}, {Range: table[1], Parts: parts1}}
	}
	left := []anonmodel.Partition{shardPart(1, 10, 2, 20, 3, 30), shardPart(4, 400, 5, 410)}
	right := []anonmodel.Partition{shardPart(6, 600, 7, 700), shardPart(8, 800, 9, 900, 10, 1000)}
	cases := []struct {
		name  string
		views []ShardView
		class string
		want  string
	}{
		{name: "valid", views: views(left, right), class: "ok"},
		{name: "empty shard", views: views(nil, right), class: "ok"},
		{
			name:  "under k in one view",
			views: views(left, []anonmodel.Partition{shardPart(6, 600, 7, 700), shardPart(8, 800)}),
			class: "under-k",
			want:  "verify: shard view 1 (range [0x200, 0x3ff]): verify: partition 1 (1 records) violates 2-anonymity",
		},
		{
			name:  "twice inside a view",
			views: views(left, []anonmodel.Partition{shardPart(6, 600, 7, 700), shardPart(8, 800, 6, 601)}),
			class: "twice",
			want:  "verify: shard view 1 (range [0x200, 0x3ff]): verify: record 6 published in partitions 0 and 1",
		},
		{
			name:  "twice across views",
			views: views(left, []anonmodel.Partition{shardPart(6, 600, 7, 700), shardPart(8, 800, 2, 900), shardPart(11, 950, 4, 960)}),
			class: "twice-across-views",
			want:  "verify: record 2 published by shard views 0 and 1",
		},
		{
			name:  "record across the seam",
			views: views([]anonmodel.Partition{shardPart(1, 10, 2, 20, 3, 512)}, right),
			class: "seam",
			want:  "verify: record 3 (key 0x200) in partition 0 of shard view 0 escapes range [0x0, 0x1ff]",
		},
	}
	for _, tc := range cases {
		// The same views with their IDs spread out take the table path
		// and must name the same witness.
		sets := make([][]anonmodel.Partition, len(tc.views))
		for vi, v := range tc.views {
			sets[vi] = v.Parts
		}
		spread, back := map[int64]int64{}, map[int64]int64{}
		for id := range denseIDs(sets) {
			spread[id], back[id*sparseStride] = id*sparseStride, id
		}
		sparse := slices.Clone(tc.views)
		for vi, parts := range relabel(sets, spread) {
			sparse[vi].Parts = parts
		}
		if got, want := relabelErr(CrossShard(sparse, table, quant, sfc.ZOrder, 2), back), fmt.Sprint(CrossShard(tc.views, table, quant, sfc.ZOrder, 2)); got != want {
			t.Fatalf("%s: CrossShard says %s on spread IDs, %s on dense ones", tc.name, got, want)
		}
		oracle := oracleCrossShardRecords(tc.views, quant, sfc.ZOrder, 2)
		for i := 0; i < 50; i++ {
			err := CrossShard(tc.views, table, quant, sfc.ZOrder, 2)
			if class(err) != tc.class || class(oracle) != tc.class {
				t.Fatalf("%s: CrossShard says %v, oracle says %v, want class %q", tc.name, err, oracle, tc.class)
			}
			if tc.want != "" && err.Error() != tc.want {
				t.Fatalf("%s, audit %d: got %q, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

// auditFamily is a valid three-release family of n records (groups of
// 10, then 50, then 250). IDs are i·stride − n for record i:
// sparseStride spreads them out (the table path), denseStride numbers
// them like the benchmark's records (the bitmap path).
func auditFamily(n int, stride int64) [][]anonmodel.Partition {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)*stride - int64(n)
	}
	sizes := make([]int, n/10)
	for i := range sizes {
		sizes[i] = 10
	}
	fives := func(parts int) []int {
		runs := make([]int, parts/5)
		for i := range runs {
			runs[i] = 5
		}
		return runs
	}
	return nestedFamily(ids, sizes, [][]int{fives(n / 10), fives(n / 50)})
}

const (
	sparseStride = 2654435761
	denseStride  = 1
)

// TestAuditAllocationsAreFlat pins the auditors' allocation budget on
// both ID paths: a fixed handful of arrays, the same count at 1 000
// records as at 50 000. A per-record or per-partition allocation (a
// map bucket, a cell slice, a string key) would scale the count with n.
func TestAuditAllocationsAreFlat(t *testing.T) {
	var k10 anonmodel.Constraint = anonmodel.KAnonymity{K: 10}
	count := func(n int, stride int64) (release, releases float64) {
		sets := auditFamily(n, stride)
		release = testing.AllocsPerRun(3, func() {
			if err := Release(sets[0], k10); err != nil {
				t.Fatal(err)
			}
		})
		releases = testing.AllocsPerRun(3, func() {
			if err := Releases(sets, 10); err != nil {
				t.Fatal(err)
			}
		})
		return release, releases
	}
	for _, stride := range []int64{sparseStride, denseStride} {
		smallRelease, smallReleases := count(1000, stride)
		largeRelease, largeReleases := count(50000, stride)
		if smallRelease != largeRelease || smallReleases != largeReleases {
			t.Fatalf("stride %d: allocations grow with n: Release %v -> %v, Releases %v -> %v", stride, smallRelease, largeRelease, smallReleases, largeReleases)
		}
		if largeRelease > 4 || largeReleases > 4 {
			t.Fatalf("stride %d: Release allocates %v times, Releases %v; want a handful of arrays", stride, largeRelease, largeReleases)
		}
	}
}

// TestAuditBytesPerRecord pins the bytes the auditors allocate per
// record on a dense 100 000-record family, the IDs every benchmark
// workload publishes. Release allocates the bitmap: 1 563 words, 13 568
// B in its size class. Releases allocates the bitmap, its per-word
// ranks (6 528 B), one int32 per record for its row (401 408 B in whole
// pages) and one per (record, later release) for its cell (802 816 B).
// The counts are exact: a test that fails here names the new figure.
func TestAuditBytesPerRecord(t *testing.T) {
	const n = 100000
	sets := auditFamily(n, denseStride)
	release := bytesPerRecord(t, n, func() error { return Release(sets[0], anonmodel.KAnonymity{K: 10}) })
	releases := bytesPerRecord(t, n, func() error { return Releases(sets, 10) })
	t.Logf("Release %.5f B/record, Releases %.5f B/record", release, releases)
	if release != 0.13568 || releases != 12.24320 {
		t.Fatalf("Release allocates %.5f B per record, Releases %.5f; pinned 0.13568 and 12.24320", release, releases)
	}
}

// TestNewFamilyBytesPerRecord pins what proving a base costs per record
// when the same family's first release is handed in as index leaves:
// the scan's one copy of the records, its partitions and boxes, and
// Release's bitmap. A second audit of the base, Releases over the
// one-release family, would add its rows: 64.04640 B. The scan runs at
// GOMAXPROCS 1, so the count is exact.
func TestNewFamilyBytesPerRecord(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100000
	leaves := core.Tiling{Partitions: auditFamily(n, denseStride)[0]}
	got := bytesPerRecord(t, n, func() error {
		_, err := NewFamily(leaves, 10)
		return err
	})
	t.Logf("NewFamily %.5f B/record", got)
	if got != 59.83136 {
		t.Fatalf("NewFamily allocates %.5f B per record; pinned 59.83136", got)
	}
}

// bytesPerRecord is the least TotalAlloc delta of three runs of audit,
// divided by the n records it proves.
func bytesPerRecord(t *testing.T, n int, audit func() error) float64 {
	t.Helper()
	var best uint64 = math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := audit()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(best) / float64(n)
}

// TestIDTable exercises the table directly on the shapes that stress
// open addressing: one probe chain through every ID, chains that wrap
// around the end of the slot array, and growth past the sizing hint.
func TestIDTable(t *testing.T) {
	for _, mode := range []uint8{0, 1, 2, 3, 4, 5} {
		tab := newIDTable(4) // undersized on purpose: 256 IDs force growth
		for round := 0; round < 2; round++ {
			for x := 0; x < 256; x++ {
				id := adversarialID(mode, uint8(x))
				fresh, err := tab.add(id)
				rank, ok := tab.lookup(id)
				if err != nil || int(rank) != x || !ok || fresh != (round == 0) {
					t.Fatalf("mode %d round %d: add(%d) = %v, %v, then rank %d, %v; want %d", mode, round, id, fresh, err, rank, ok, x)
				}
			}
		}
		if len(tab.ids) != 256 || 2*len(tab.ids) > len(tab.slots) {
			t.Fatalf("mode %d: %d ids in %d slots", mode, len(tab.ids), len(tab.slots))
		}
	}
	empty := newIDTable(0)
	if fresh, err := empty.add(math.MinInt64); !fresh || err != nil {
		t.Fatalf("first add to an empty table: %v, %v", fresh, err)
	}
	if r, ok := empty.lookup(math.MinInt64); r != 0 || !ok {
		t.Fatalf("first rank in an empty table: %d, %v", r, ok)
	}
}
