// Package dataset provides the data sources used by the paper's
// evaluation (Section 5), rebuilt synthetically:
//
//   - A Lands End-like customer-sale generator. The real Lands End data
//     set (4,591,581 records, 8 attributes, 32-byte records) is
//     proprietary; this generator reproduces its schema, mixed
//     numeric/categorical shape, value skew and attribute correlations.
//     Categorical attributes are integer-coded under an "intuitive
//     ordering", exactly as the paper's experimental configuration.
//   - A faithful port of the classic Agrawal et al. synthetic generator
//     [1] with its nine attributes (36-byte records), which the paper
//     used for the 100-million-record scaling experiments.
//   - A tiny "patients" generator mirroring Figure 1 of the paper, with
//     a genuine sensitive attribute (Ailment), used by examples and by
//     the l-diversity tests.
//
// All generators are deterministic given a seed, support both
// materialized ([]attr.Record) and streaming generation (for
// larger-than-memory loads), and agree record-for-record between the two
// modes.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
	"spatialanon/internal/par"
)

// Stream produces records one at a time so that larger-than-memory data
// sets never need to be materialized. Generators return Streams whose
// output matches their materializing counterparts record for record.
//
// Each record's randomness is derived from (seed, id) alone, so which
// generator draws it, and in what order, cannot change it: Next reseeds
// the stream's one generator per record, and NextBatch cuts a batch into
// chunks of rowBlock records that it fills on all cores, each chunk with
// a generator of its own. Streaming, batching, materialization and the
// core count all agree, and the incremental experiments can re-generate
// a prefix of a data set. detrng's SplitMix64 seeds in O(1), unlike
// math/rand's default source, which is what makes the reseeding cheap.
type Stream struct {
	remaining int
	next      int64
	seed      int64
	rng       *rand.Rand // over one detrng.Source, reseeded per record
	dims      int
	// fill draws one record's QI values into qi and returns its
	// sensitive value.
	fill func(rng *rand.Rand, qi []float64) string
	// block is the unused rest of Next's current QI array. Vectors are
	// cap-clipped windows of arrays of up to rowBlock rows — one per
	// chunk in NextBatch — so a record costs no allocation of its own and
	// a retained prefix of a data set pins the blocks it lies in, not the
	// table.
	block []float64
}

// rowBlock is the number of QI vectors carved from one array.
const rowBlock = 4096

// newStream builds a Stream of n records of dims attributes under seed.
func newStream(n int, seed int64, dims int, fill func(rng *rand.Rand, qi []float64) string) *Stream {
	return &Stream{remaining: n, seed: seed, rng: detrng.New(0), dims: dims, fill: fill}
}

// Next returns the next record, or ok=false when the stream is
// exhausted.
func (s *Stream) Next() (attr.Record, bool) {
	if s.remaining <= 0 {
		return attr.Record{}, false
	}
	if len(s.block) < s.dims {
		s.block = make([]float64, min(s.remaining, rowBlock)*s.dims)
	}
	qi := s.block[:s.dims:s.dims]
	s.block = s.block[s.dims:]
	id := s.next
	s.remaining--
	s.next++
	return s.record(s.rng, id, qi), true
}

// record draws record id's values into qi with rng.
func (s *Stream) record(rng *rand.Rand, id int64, qi []float64) attr.Record {
	rng.Seed(detrng.Derive(s.seed, id))
	return attr.Record{ID: id, QI: qi, Sensitive: s.fill(rng, qi)}
}

// Remaining returns how many records the stream will still produce.
func (s *Stream) Remaining() int { return s.remaining }

// NextBatch returns the next min(size, Remaining()) records — the ones
// Next would return, in order — and an empty batch at end of stream or
// for size <= 0. It is the one bulk drain of every generator: the batch
// is cut into chunks of rowBlock records, and par.Do fills the chunks on
// all cores, each with its own generator and one QI array.
func (s *Stream) NextBatch(size int) []attr.Record {
	n := max(min(size, s.remaining), 0)
	out := make([]attr.Record, n)
	first := s.next
	par.Do(0, (n+rowBlock-1)/rowBlock, func(c int) {
		lo, hi := c*rowBlock, min((c+1)*rowBlock, n)
		block := make([]float64, (hi-lo)*s.dims)
		rng := detrng.New(0)
		for i := lo; i < hi; i++ {
			qi := block[:s.dims:s.dims]
			block = block[s.dims:]
			out[i] = s.record(rng, first+int64(i), qi)
		}
	})
	s.remaining -= n
	s.next += int64(n)
	return out
}

// Collect drains a stream into a slice.
func Collect(s *Stream) []attr.Record { return s.NextBatch(s.Remaining()) }

// zipfIndex draws an index in [0,n) with a Zipf-like skew: rank r has
// probability proportional to 1/(r+1)^s. An inverse CDF over a
// precomputed table would be faster, and generation is measured — it is
// most of the benchmark's set-up — but the draw sequence is what every
// digest and pinned figure rests on, so it stays as it is.
func zipfIndex(rng *rand.Rand, n int, s float64) int {
	// Rejection-free approximate inverse transform: u^(1/(1-s)) maps a
	// uniform variate to a power-law rank for s<1; clamp for safety.
	if n <= 1 {
		return 0
	}
	u := rng.Float64()
	r := int(math.Pow(u, 1/(1-s)) * float64(n))
	if r >= n {
		r = n - 1
	}
	return r
}

// sets is the one registry of named data sets: what a command's
// -dataset flag accepts, in the order help strings list them.
var sets = []struct {
	name   string
	schema func() *attr.Schema
	stream func(n int, seed int64) *Stream
}{
	{"patients", PatientsSchema, PatientsStream},
	{"landsend", LandsEndSchema, LandsEndStream},
	{"agrawal", AgrawalSchema, AgrawalStream},
}

// Lookup returns the schema of the named data set and the generator
// streaming n of its records under a seed.
func Lookup(name string) (*attr.Schema, func(n int, seed int64) *Stream, error) {
	for _, s := range sets {
		if s.name == name {
			return s.schema(), s.stream, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown dataset %q (want %s)", name, Names())
}

// Names renders the names Lookup accepts for a help string:
// "patients, landsend or agrawal".
func Names() string {
	names := make([]string, len(sets))
	for i, s := range sets {
		names[i] = s.name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}
