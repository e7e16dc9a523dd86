package routing

import (
	"slices"
	"testing"
)

// TestSortByCand exercises the estimator's candidate order directly:
// ascending by original partition index, each contribution travelling
// with its index.
func TestSortByCand(t *testing.T) {
	var cand []candidate
	for _, c := range []int32{9, 3, 7, 1, 8, 2, 6, 0, 5, 4, 13, 11, 12, 10, 15, 14} {
		cand = append(cand, candidate{orig: c, contrib: float64(c) * 1.5})
	}
	slices.SortFunc(cand, byOrig)
	for i, c := range cand {
		if int(c.orig) != i {
			t.Fatalf("cand[%d].orig = %d", i, c.orig)
		}
		if c.contrib != float64(i)*1.5 {
			t.Fatalf("cand[%d].contrib = %v, want %v (pairs must move together)", i, c.contrib, float64(i)*1.5)
		}
	}
}
