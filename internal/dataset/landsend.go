package dataset

import (
	"math/rand"

	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
)

// Lands End-like data set: eight attributes matching the paper's
// description of the real data set ("zipcode, order date, gender, style,
// price, quantity, cost and shipment"), each coded as a 4-byte integer
// for the 32-byte binary record format.
//
// Shape choices (documented substitutions for the proprietary source):
//
//   - zipcode: customer zipcodes cluster around population centers. We
//     draw one of 500 cluster centers with Zipf skew, then a local
//     offset, giving the multimodal, heavily skewed distribution real
//     customer files show.
//   - order date: days since the epoch of the file, 0..2190 (six years),
//     with a seasonal surge in the last quarter of each year.
//   - gender: categorical {M, F}, coded 0/1, slightly F-skewed (catalog
//     retail).
//   - style: 400 catalog styles with Zipf-skewed popularity.
//   - price: base price depends on style (so style and price correlate),
//     plus noise; dollars 5..500.
//   - quantity: small counts 1..10, geometric-ish.
//   - cost: 55%..80% of price (correlated attribute pair).
//   - shipment: six ship modes, skewed toward ground.
const (
	landsEndZipClusters = 500
	landsEndDays        = 2190
	landsEndStyles      = 400
	landsEndShipModes   = 6
)

// The two Zipf draws of a Lands End record, built once.
var (
	landsEndClusterZipf = newZipf(landsEndZipClusters, 0.6)
	landsEndStyleZipf   = newZipf(landsEndStyles, 0.7)
)

// LandsEndSchema returns the 8-attribute quasi-identifier schema of the
// Lands End-like data set. As in the paper, every attribute is part of
// the quasi-identifier and categorical attributes are integer-coded, so
// there is no sensitive attribute.
func LandsEndSchema() *attr.Schema {
	return &attr.Schema{
		Attrs: []attr.Attribute{
			{Name: "zipcode", Kind: attr.Numeric},
			{Name: "order_date", Kind: attr.Numeric},
			{Name: "gender", Kind: attr.Categorical},
			{Name: "style", Kind: attr.Categorical},
			{Name: "price", Kind: attr.Numeric},
			{Name: "quantity", Kind: attr.Numeric},
			{Name: "cost", Kind: attr.Numeric},
			{Name: "shipment", Kind: attr.Categorical},
		},
	}
}

// landsEndRow draws one record's values from its generator.
func landsEndRow(rng *rand.Rand, qi []float64) string {
	cluster := landsEndClusterZipf.draw(rng)
	zipBase := 10000 + cluster*180 // spread clusters over [10000, 99999]
	zip := zipBase + rng.Intn(120)

	day := rng.Intn(landsEndDays)
	if rng.Float64() < 0.35 { // seasonal surge: re-draw into Q4 of a year
		year := rng.Intn(landsEndDays / 365)
		day = year*365 + 273 + rng.Intn(92)
	}

	gender := 0
	if rng.Float64() < 0.58 {
		gender = 1
	}

	style := landsEndStyleZipf.draw(rng)
	basePrice := 5 + (style*37)%480 // style-determined base price
	price := basePrice + rng.Intn(21) - 10
	if price < 5 {
		price = 5
	}

	quantity := 1
	for quantity < 10 && rng.Float64() < 0.35 {
		quantity++
	}

	cost := int(float64(price) * (0.55 + 0.25*rng.Float64()))
	if cost < 1 {
		cost = 1
	}

	ship := 0
	switch v := rng.Float64(); {
	case v < 0.55:
		ship = 0
	case v < 0.75:
		ship = 1
	case v < 0.86:
		ship = 2
	case v < 0.93:
		ship = 3
	case v < 0.98:
		ship = 4
	default:
		ship = 5
	}

	qi[0], qi[1], qi[2], qi[3] = float64(zip), float64(day), float64(gender), float64(style)
	qi[4], qi[5], qi[6], qi[7] = float64(price), float64(quantity), float64(cost), float64(ship)
	return ""
}

// LandsEndStream returns a stream of n Lands End-like records.
func LandsEndStream(n int, seed int64) *Stream {
	return newStream(n, seed, LandsEndSchema().Dims(), landsEndRow)
}

// GenerateLandsEnd materializes n Lands End-like records.
func GenerateLandsEnd(n int, seed int64) []attr.Record {
	return Collect(LandsEndStream(n, seed))
}

// Agrawal et al. synthetic generator [1] — the paper's second data set.
// Nine attributes, 36-byte records. Distributions follow the published
// generator: salary uniform [20k,150k]; commission 0 if salary >= 75k
// else uniform [10k,75k]; age uniform [20,80]; elevel uniform {0..4};
// car uniform {1..20}; zipcode uniform {0..8}; hvalue uniform
// [0.5,1.5] x k x 100k where k depends on zipcode; hyears uniform
// [1,30]; loan uniform [0,500k].

// AgrawalSchema returns the 9-attribute schema of the Agrawal et al.
// synthetic data set.
func AgrawalSchema() *attr.Schema {
	return &attr.Schema{
		Attrs: []attr.Attribute{
			{Name: "salary", Kind: attr.Numeric},
			{Name: "commission", Kind: attr.Numeric},
			{Name: "age", Kind: attr.Numeric},
			{Name: "elevel", Kind: attr.Categorical},
			{Name: "car", Kind: attr.Categorical},
			{Name: "zipcode", Kind: attr.Categorical},
			{Name: "hvalue", Kind: attr.Numeric},
			{Name: "hyears", Kind: attr.Numeric},
			{Name: "loan", Kind: attr.Numeric},
		},
	}
}

func agrawalRow(rng *rand.Rand, qi []float64) string {
	salary := 20000 + rng.Intn(130001)
	commission := 0
	if salary < 75000 {
		commission = 10000 + rng.Intn(65001)
	}
	age := 20 + rng.Intn(61)
	elevel := rng.Intn(5)
	car := 1 + rng.Intn(20)
	zipcode := rng.Intn(9)
	k := zipcode + 1
	hvalue := int(float64(k) * 100000 * (0.5 + rng.Float64()))
	hyears := 1 + rng.Intn(30)
	loan := rng.Intn(500001)

	qi[0], qi[1], qi[2] = float64(salary), float64(commission), float64(age)
	qi[3], qi[4], qi[5] = float64(elevel), float64(car), float64(zipcode)
	qi[6], qi[7], qi[8] = float64(hvalue), float64(hyears), float64(loan)
	return ""
}

// AgrawalStream returns a stream of n Agrawal et al. records.
func AgrawalStream(n int, seed int64) *Stream {
	return newStream(n, seed, AgrawalSchema().Dims(), agrawalRow)
}

// GenerateAgrawal materializes n Agrawal et al. records.
func GenerateAgrawal(n int, seed int64) []attr.Record {
	return Collect(AgrawalStream(n, seed))
}

// Patients toy data set mirroring Figure 1 of the paper: quasi-identifier
// (Age, Sex, Zipcode) plus the sensitive attribute Ailment. Used by
// examples and by diversity-constraint tests, which need a genuine
// sensitive attribute.

var patientAilments = []string{
	"anemia", "flu", "cancer", "torn acl", "whiplash",
	"asthma", "diabetes", "migraine", "fracture", "allergy",
}

// PatientsSchema returns the Figure 1 schema: Age, Sex, Zipcode with
// sensitive attribute Ailment. Sex carries a flat generalization
// hierarchy so that fully generalized values render as the paper's "*".
func PatientsSchema() *attr.Schema {
	return &attr.Schema{
		Attrs: []attr.Attribute{
			{Name: "age", Kind: attr.Numeric},
			{Name: "sex", Kind: attr.Categorical, Hierarchy: attr.MustFlatHierarchy("*", "M", "F")},
			{Name: "zipcode", Kind: attr.Numeric},
		},
		Sensitive: "ailment",
	}
}

func patientRow(rng *rand.Rand, qi []float64) string {
	qi[0] = float64(18 + rng.Intn(73))      // age
	qi[1] = float64(rng.Intn(2))            // sex
	qi[2] = float64(52100 + rng.Intn(1700)) // zipcode
	return patientAilments[rng.Intn(len(patientAilments))]
}

// PatientsStream returns a stream of n patient records.
func PatientsStream(n int, seed int64) *Stream {
	return newStream(n, seed, PatientsSchema().Dims(), patientRow)
}

// GeneratePatients materializes n patient records.
func GeneratePatients(n int, seed int64) []attr.Record {
	return Collect(PatientsStream(n, seed))
}

// Shuffle permutes records in place, deterministically under seed. The
// incremental experiments shuffle once so that batch order is not
// correlated with generation order.
func Shuffle(recs []attr.Record, seed int64) {
	rng := detrng.New(seed)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
}
