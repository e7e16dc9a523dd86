// Package quality implements the three anonymization quality measures
// the paper evaluates with (Section 5.3):
//
//   - the discernibility penalty DM(T) = Σ|Pᵢ|² of Bayardo and
//     Agrawal [4] (Definition 3),
//   - the weighted normalized certainty penalty CM(T) = Σ NCP(t) of Xu
//     et al. [33] (Definition 4), and
//   - the KL divergence between the original and anonymized data
//     distributions of Kifer and Gehrke [15] (Definition 5).
//
// The paper's central quality observation reappears here as code: DM
// depends only on partition cardinalities, so compaction cannot change
// it, while CM and KL reward the tight boxes (gaps) that compaction and
// MBR-keeping indexes produce.
package quality

import (
	"math"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/par"
)

// Discernibility returns DM(T) = Σ|Pᵢ|² (Definition 3). Each tuple is
// penalized by the size of its equivalence class, so the metric rewards
// partitions close to the minimum size k.
func Discernibility(ps []anonmodel.Partition) float64 {
	dm := 0.0
	for _, p := range ps {
		n := float64(p.Size())
		dm += n * n
	}
	return dm
}

// Certainty returns CM(T) = Σ_t NCP(t) (Definition 4). domain is the
// extent of the whole table per attribute (|T.A_i|); the per-attribute
// weights come from the schema (default 1). For a categorical attribute
// carrying a generalization hierarchy, |t.A_i| is the number of leaves
// under the lowest common ancestor of the partition's code range and a
// single value contributes zero, following [33]; coded attributes
// without hierarchies are treated numerically, exactly as the paper's
// experimental configuration ("hierarchical constraints were eliminated
// by imposing an intuitive ordering").
func Certainty(s *attr.Schema, ps []anonmodel.Partition, domain attr.Box) float64 {
	cm := 0.0
	for _, p := range ps {
		cm += float64(p.Size()) * ncpBox(s, p.Box, domain)
	}
	return cm
}

// ncpBox is the NCP every tuple generalized to box pays.
func ncpBox(s *attr.Schema, box attr.Box, domain attr.Box) float64 {
	ncp := 0.0
	for i, a := range s.Attrs {
		w := a.EffectiveWeight()
		if a.Hierarchy != nil {
			total := a.Hierarchy.LeafCount()
			if total <= 1 || box[i].IsEmpty() {
				continue
			}
			_, span, err := a.Hierarchy.GeneralizeInterval(box[i])
			if err != nil || span <= 1 {
				continue
			}
			ncp += w * float64(span) / float64(total)
			continue
		}
		dw := domain[i].Width()
		if dw <= 0 {
			continue
		}
		ncp += w * box[i].Width() / dw
	}
	return ncp
}

// GlobalCertainty returns the certainty penalty normalized into [0,1]:
// CM divided by the number of tuples times the total attribute weight.
// 0 means every tuple published exact values; 1 means every tuple was
// generalized to the full domain.
func GlobalCertainty(s *attr.Schema, ps []anonmodel.Partition, domain attr.Box) float64 {
	n := anonmodel.TotalRecords(ps)
	if n == 0 {
		return 0
	}
	wsum := 0.0
	for _, a := range s.Attrs {
		wsum += a.EffectiveWeight()
	}
	if wsum == 0 {
		return 0
	}
	return Certainty(s, ps, domain) / (float64(n) * wsum)
}

// KLDivergence returns KL(p₁‖p₂) (Definition 5) where p₁ is the
// empirical distribution of the original tuples and p₂ spreads each
// partition's mass uniformly over the integer cells of its published
// box, following [15]. Attribute values are assumed integer-coded (as
// all the paper's data sets are); a box side of width w therefore spans
// w+1 cells.
//
// Because p₂ restricted to the original tuples is a sub-probability
// measure, the result is always >= 0, and it is 0 exactly when every
// partition is a single point column of identical tuples.
func KLDivergence(ps []anonmodel.Partition) float64 {
	n := float64(anonmodel.TotalRecords(ps))
	if n == 0 {
		return 0
	}
	kl := 0.0
	for _, p := range ps {
		kl += klPartition(p, n)
	}
	return kl
}

// klPartition is one partition's contribution to KL(p₁‖p₂) in a table
// of n tuples. Tuple groups are accumulated in sorted key order:
// float addition is not associative, so summing in map order would
// let the low bits vary run to run.
func klPartition(p anonmodel.Partition, n float64) float64 {
	if p.Size() == 0 {
		return 0
	}
	cells := p.Box.Cells()
	mass := float64(p.Size()) / n // partition's share of p2
	// Group identical tuples within the partition: p1(t) = c_t/n.
	counts := make(map[string]int, p.Size())
	for i := range p.Size() {
		counts[pointKey(p.Record(i).QI)]++
	}
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	kl := 0.0
	for _, key := range keys {
		p1 := float64(counts[key]) / n
		p2 := mass / cells
		kl += p1 * math.Log(p1/p2)
	}
	return kl
}

// pointKey canonicalizes a QI vector for exact grouping.
func pointKey(qi []float64) string {
	buf := make([]byte, 0, len(qi)*8)
	for _, v := range qi {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(bits>>s))
		}
	}
	return string(buf)
}

// Report bundles the three metrics for one anonymization — one row of
// the Figure 10/11 plots.
type Report struct {
	Partitions     int
	Discernibility float64
	Certainty      float64
	KLDivergence   float64
}

// measureChunk is the fixed reduction granule of Measure. Partials
// are computed per chunk and combined in chunk order, so the chunk
// boundaries — not the worker schedule — define the floating-point
// summation tree.
const measureChunk = 64

// Measure computes all three metrics on GOMAXPROCS workers.
// Per-partition terms are accumulated into fixed 64-partition chunks
// and the chunk partials are summed in chunk order, making the result
// independent of the worker schedule; for
// tables of more than one chunk the summation tree differs from the
// flat left-to-right sum of Discernibility, Certainty and KLDivergence,
// so the two can disagree in the last bits.
func Measure(s *attr.Schema, ps []anonmodel.Partition, domain attr.Box) Report {
	n := len(ps)
	if n == 0 {
		return Report{}
	}
	total := float64(anonmodel.TotalRecords(ps))
	chunks := (n + measureChunk - 1) / measureChunk
	type partial struct{ dm, cm, kl float64 }
	parts := make([]partial, chunks)
	par.Do(chunks, func(c int) {
		lo := c * measureChunk
		hi := lo + measureChunk
		if hi > n {
			hi = n
		}
		var pt partial
		for _, p := range ps[lo:hi] {
			sz := float64(p.Size())
			pt.dm += sz * sz
			pt.cm += sz * ncpBox(s, p.Box, domain)
			pt.kl += klPartition(p, total)
		}
		parts[c] = pt
	})
	r := Report{Partitions: n}
	for _, pt := range parts {
		r.Discernibility += pt.dm
		r.Certainty += pt.cm
		r.KLDivergence += pt.kl
	}
	return r
}
