package rplustree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refMedianSplit is the obviously-correct sort-based specification of
// medianSplit, used as the oracle for property tests.
func refMedianSplit(vals []float64) (v float64, leftN int, gap, width float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, 0, 0, false
	}
	s := make([]float64, n)
	copy(s, vals)
	sort.Float64s(s)
	if s[0] == s[n-1] {
		return 0, 0, 0, 0, false
	}
	mid := n / 2
	v = s[mid]
	if v == s[0] {
		for mid < n && s[mid] == s[0] {
			mid++
		}
		v = s[mid]
	}
	leftN = sort.SearchFloat64s(s, v)
	return v, leftN, v - s[leftN-1], s[n-1] - s[0], true
}

func TestQuickselectAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(400)
		vals := make([]float64, n)
		for i := range vals {
			// Heavy duplication to stress equal-pivot handling.
			vals[i] = float64(rng.Intn(12))
		}
		k := rng.Intn(n)
		sorted := make([]float64, n)
		copy(sorted, vals)
		sort.Float64s(sorted)
		got := quickselect(vals, k)
		if got != sorted[k] {
			t.Fatalf("quickselect(%d of %d) = %v, want %v", k, n, got, sorted[k])
		}
	}
}

func TestQuickselectExtremes(t *testing.T) {
	vals := []float64{5}
	if quickselect(vals, 0) != 5 {
		t.Fatal("singleton")
	}
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i)
	}
	if quickselect(asc, 0) != 0 || quickselect(asc, 199) != 199 {
		t.Fatal("presorted extremes")
	}
	desc := make([]float64, 200)
	for i := range desc {
		desc[i] = float64(199 - i)
	}
	if quickselect(desc, 100) != 100 {
		t.Fatal("reverse-sorted median")
	}
	same := make([]float64, 100)
	if quickselect(same, 50) != 0 {
		t.Fatal("all-equal")
	}
}

func TestMedianSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 800; trial++ {
		// Cover both the small (sorted) and large (selection) paths,
		// with duplicate-heavy and diverse inputs.
		n := 2 + rng.Intn(300)
		vals := make([]float64, n)
		span := 1 + rng.Intn(40)
		for i := range vals {
			vals[i] = float64(rng.Intn(span))
		}
		wantV, wantL, wantG, wantW, wantOK := refMedianSplit(vals)
		gotV, gotL, gotG, gotW, gotOK := medianSplit(vals)
		if gotOK != wantOK {
			t.Fatalf("n=%d span=%d: ok %v want %v", n, span, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if gotV != wantV || gotL != wantL || gotG != wantG || gotW != wantW {
			t.Fatalf("n=%d span=%d: got (v=%v l=%d g=%v w=%v) want (v=%v l=%d g=%v w=%v)",
				n, span, gotV, gotL, gotG, gotW, wantV, wantL, wantG, wantW)
		}
	}
}

// Property (testing/quick): whenever medianSplit reports ok, both sides
// are non-empty and v separates them (everything below v counted by
// leftN, everything else >= v).
func TestQuickMedianSplitSeparates(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, b := range raw {
			vals[i] = float64(b % 16)
		}
		orig := make([]float64, len(vals))
		copy(orig, vals)
		v, leftN, gap, width, ok := medianSplit(vals)
		if !ok {
			// Must mean all values equal.
			for _, x := range orig {
				if x != orig[0] {
					return false
				}
			}
			return true
		}
		below := 0
		for _, x := range orig {
			if x < v {
				below++
			}
		}
		if below != leftN || leftN == 0 || leftN == len(orig) {
			return false
		}
		return gap > 0 && width > 0
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(203))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRankedAxes(t *testing.T) {
	recs := recsAt(
		[]float64{0, 0, 52000},
		[]float64{100, 1, 52100},
	)
	ctx := splitCtx()
	// Without an MBR hint the function scans: age spans its whole
	// domain (100/100), sex whole (1/1), zipcode a sliver (100/2000).
	axes := rankedAxes(recs, ctx, make([]int, 2))
	if len(axes) != 2 {
		t.Fatalf("axes = %v", axes)
	}
	if axes[0] != 0 && axes[0] != 1 {
		t.Fatalf("widest axis = %d", axes[0])
	}
	for _, a := range axes {
		if a == 2 {
			t.Fatalf("narrow zipcode ranked top-2: %v", axes)
		}
	}
	// Requesting >= dims returns all axes in order.
	all := rankedAxes(recs, ctx, make([]int, 8))
	if len(all) != 3 || all[0] != 0 || all[2] != 2 {
		t.Fatalf("all axes = %v", all)
	}
}

func TestRankedAxesWeighted(t *testing.T) {
	recs := recsAt(
		[]float64{0, 0, 52000},
		[]float64{100, 1, 52100},
	)
	ctx := splitCtx()
	// Copy the schema and boost zipcode's weight 1000x: it must rank
	// first despite spanning a sliver of its domain.
	cp := *ctx.Schema
	cp.Attrs = append(cp.Attrs[:0:0], ctx.Schema.Attrs...)
	cp.Attrs[2].Weight = 1000
	ctx.Schema = &cp
	axes := rankedAxes(recs, ctx, make([]int, 1))
	if axes[0] != 2 {
		t.Fatalf("weighted ranking = %v, want zipcode first", axes)
	}
}
