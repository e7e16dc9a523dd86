package quadtree

import (
	"math"
	"math/rand"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func newPatientQT(t *testing.T, n int, seed int64) *Tree {
	t.Helper()
	qt, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 5}, dataset.GeneratePatients(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return qt
}

func TestNewValidation(t *testing.T) {
	boot := dataset.GeneratePatients(10, 1)
	cases := []Config{
		{},                                 // nil schema
		{Schema: dataset.PatientsSchema()}, // BaseK 0
		{Schema: dataset.PatientsSchema(), BaseK: 5, LeafFactor: 1},       // bad c
		{Schema: dataset.PatientsSchema(), BaseK: 5, SplitAxes: []int{9}}, // bad axis
		{Schema: dataset.PatientsSchema(), BaseK: 5, SplitAxes: []int{0, 0}},
		{Schema: dataset.PatientsSchema(), BaseK: 5, SplitAxes: []int{0, 1, 2, 0, 1}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, boot); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 5}, nil); err == nil {
		t.Fatal("empty bootstrap accepted")
	}
	bad := []attr.Record{{QI: []float64{1}}}
	if _, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 5}, bad); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestBuildAndInvariants(t *testing.T) {
	qt := newPatientQT(t, 1500, 2)
	if qt.Len() != 1500 {
		t.Fatalf("Len = %d", qt.Len())
	}
	if err := qt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if qt.Height() < 2 {
		t.Fatalf("height %d after 1500 inserts", qt.Height())
	}
	leaves := qt.Leaves()
	total := 0
	seen := map[int64]bool{}
	for _, l := range leaves {
		total += l.Size()
		for i := range l.Size() {
			r := l.Record(i)
			if seen[r.ID] {
				t.Fatalf("record %d in two leaves", r.ID)
			}
			seen[r.ID] = true
			if !l.Box.Contains(r.QI) {
				t.Fatalf("record %d outside its leaf MBR", r.ID)
			}
		}
	}
	if total != 1500 {
		t.Fatalf("leaves hold %d records", total)
	}
	// Leaf MBRs are pairwise disjoint (cells are disjoint and MBRs are
	// inside cells on the split axes)... only over split axes; verify
	// no duplicate record instead (done above).
}

func TestLeafCapacity(t *testing.T) {
	qt := newPatientQT(t, 2000, 3)
	cap := qt.cfg.LeafFactor * qt.cfg.BaseK
	for _, l := range qt.Leaves() {
		if l.Size() > cap {
			// Only legal at the depth cap (duplicate pile-ups).
			t.Fatalf("leaf holds %d records, cap %d", l.Size(), cap)
		}
	}
}

func TestIncrementalInsertAndGrowth(t *testing.T) {
	qt := newPatientQT(t, 200, 4)
	// Insert points far outside the bootstrap domain: the root must
	// grow, and invariants must survive.
	out := []attr.Record{
		{ID: 9001, QI: []float64{500, 0, 99999}},
		{ID: 9002, QI: []float64{-100, 1, 10}},
		{ID: 9003, QI: []float64{1e6, 0, -5}},
	}
	for _, r := range out {
		if err := qt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if qt.Len() != 203 {
		t.Fatalf("Len = %d", qt.Len())
	}
	if err := qt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, l := range qt.Leaves() {
		for i := range l.Size() {
			r := l.Record(i)
			if r.ID >= 9001 {
				found++
			}
		}
	}
	if found != 3 {
		t.Fatalf("outliers found: %d", found)
	}
	if err := qt.Insert(attr.Record{QI: []float64{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestDuplicatePointsBounded(t *testing.T) {
	boot := make([]attr.Record, 300)
	for i := range boot {
		boot[i] = attr.Record{ID: int64(i), QI: []float64{30, 1, 53706}}
	}
	// Mix in a couple of distinct points so the domain is non-degenerate.
	boot = append(boot,
		attr.Record{ID: 900, QI: []float64{20, 0, 52000}},
		attr.Record{ID: 901, QI: []float64{80, 1, 54000}},
	)
	qt, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 3}, boot)
	if err != nil {
		t.Fatal(err)
	}
	if qt.Height() > maxDepth+1 {
		t.Fatalf("height %d exceeds depth cap", qt.Height())
	}
	if err := qt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if qt.Len() != 302 {
		t.Fatalf("Len = %d", qt.Len())
	}
}

func TestExplicitSplitAxes(t *testing.T) {
	qt, err := New(Config{
		Schema:    dataset.PatientsSchema(),
		BaseK:     4,
		SplitAxes: []int{0, 2}, // age and zipcode
	}, dataset.GeneratePatients(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	axes := qt.SplitAxes()
	if len(axes) != 2 || axes[0] != 0 || axes[1] != 2 {
		t.Fatalf("SplitAxes = %v", axes)
	}
	if err := qt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultAxesSkipDegenerate(t *testing.T) {
	// All zipcodes equal: the default axis choice must not pick the
	// zero-width attribute.
	recs := make([]attr.Record, 100)
	rng := rand.New(rand.NewSource(6))
	for i := range recs {
		recs[i] = attr.Record{ID: int64(i), QI: []float64{float64(rng.Intn(80)), float64(rng.Intn(2)), 53706}}
	}
	qt, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 3}, recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range qt.SplitAxes() {
		if a == 2 {
			t.Fatalf("degenerate axis selected: %v", qt.SplitAxes())
		}
	}
	if err := qt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeavesAreZOrdered(t *testing.T) {
	// Quadrant order means consecutive leaves are spatially close;
	// cheap proxy: the summed distance between consecutive leaf MBR
	// centers must be far below the random-order expectation.
	qt := newPatientQT(t, 2000, 7)
	leaves := qt.Leaves()
	if len(leaves) < 20 {
		t.Skip("too few leaves")
	}
	dist := func(order []int) float64 {
		sum := 0.0
		for i := 1; i < len(order); i++ {
			a, b := leaves[order[i-1]].Box, leaves[order[i]].Box
			for d := range a {
				sum += math.Abs((a[d].Lo+a[d].Hi)/2 - (b[d].Lo+b[d].Hi)/2)
			}
		}
		return sum
	}
	natural := make([]int, len(leaves))
	shuffled := make([]int, len(leaves))
	for i := range natural {
		natural[i] = i
		shuffled[i] = i
	}
	rand.New(rand.NewSource(8)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if dist(natural) > dist(shuffled) {
		t.Fatalf("quadrant order (%v) no better than random (%v)", dist(natural), dist(shuffled))
	}
}
