package verify

import (
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// familyFromBytes decodes fuzz input into a small family of releases.
// Byte 0 picks 1–4 releases, byte 1 picks k in 1–6; the rest is cut
// into one equal chunk per release, two bytes (ctl, x) per record: the
// ID is adversarialID(ctl, x) — so the fuzzer steers IDs into shared
// probe chains, wrap-around slots and the int64 extremes — and ctl's
// high bits start a new partition (0x08), put an empty partition in
// front of it (0x10) or move the record outside its box (0x20).
func familyFromBytes(data []byte) (sets [][]anonmodel.Partition, k int) {
	if len(data) < 2 {
		return nil, 2
	}
	releases := 1 + int(data[0]%4)
	k = 1 + int(data[1]%6)
	data = data[2:]
	chunk := len(data) / releases &^ 1
	for ri := 0; ri < releases; ri++ {
		var groups [][]attr.Record // one per partition
		for b := data[ri*chunk : (ri+1)*chunk]; len(b) > 0; b = b[2:] {
			ctl, x := b[0], b[1]
			if ctl&0x10 != 0 {
				groups = append(groups, nil)
			}
			if len(groups) == 0 || ctl&0x18 != 0 {
				groups = append(groups, nil)
			}
			qi := float64(x)
			if ctl&0x20 != 0 {
				qi = 1000
			}
			last := len(groups) - 1
			groups[last] = append(groups[last], attr.Record{ID: adversarialID(ctl&7, x), QI: []float64{qi}})
		}
		rel := make([]anonmodel.Partition, len(groups))
		for i, recs := range groups {
			rel[i] = anonmodel.Partition{Box: attr.Box{{Lo: 0, Hi: 255}}, Records: recs}
		}
		sets = append(sets, rel)
	}
	return sets, k
}

// FuzzReleaseAudits audits whatever family the bytes decode to, with
// its own IDs and relabelled onto a dense run (the bitmap path), beside
// the map-based oracle: same verdict and same class of violation,
// identical witnesses on both paths, and never a panic.
func FuzzReleaseAudits(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 0, 2, 8, 3, 0, 4, 0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, k := familyFromBytes(data)
		auditBothPaths(t, sets, k)
	})
}
