package verify

import (
	"testing"

	"spatialanon/internal/anonmodel"
)

// auditShapes are the two ID paths an audit can take: IDs spread out
// (the table path) and IDs numbered like the benchmark's records (the
// bitmap path).
var auditShapes = []struct {
	name   string
	stride int64
}{{"ids=sparse", sparseStride}, {"ids=dense", denseStride}}

// BenchmarkReleaseAudit is one Release audit of a 100 k-record release
// in groups of 10 — the per-release cost of a publish.
func BenchmarkReleaseAudit(b *testing.B) {
	for _, shape := range auditShapes {
		b.Run(shape.name, func(b *testing.B) {
			sets := auditFamily(100000, shape.stride)
			var k10 anonmodel.Constraint = anonmodel.KAnonymity{K: 10}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Release(sets[0], k10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReleasesAudit is the Lemma-1 audit of a three-granularity
// family (10, 50, 250) over 100 k records.
func BenchmarkReleasesAudit(b *testing.B) {
	for _, shape := range auditShapes {
		b.Run(shape.name, func(b *testing.B) {
			sets := auditFamily(100000, shape.stride)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Releases(sets, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
