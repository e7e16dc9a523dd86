// Package fixture exercises the rowconfine analyzer: a selector on
// anonmodel.Partition's Records field is flagged, while a composite
// literal naming it and the reader methods are allowed.
package fixture

import (
	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

func size(p anonmodel.Partition) int {
	return len(p.Records) // want `rowconfine: selector \.Records of anonmodel\.Partition`
}

// build is a producer: the literal's key is not a selector.
func build(box attr.Box, recs []attr.Record) anonmodel.Partition {
	return anonmodel.Partition{Box: box, Records: recs}
}

// first reads through the methods.
func first(p anonmodel.Partition) int64 {
	if p.Size() == 0 {
		return -1
	}
	return p.Record(0).ID
}
