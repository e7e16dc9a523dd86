package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// Render materializes an anonymized table: one row per record, each
// quasi-identifier replaced by its partition's generalized value on that
// attribute. Numeric (and coded categorical) attributes render as the
// paper's interval notation ("[20 - 30]", or the bare value when the
// interval is a point); categorical attributes carrying a hierarchy
// render as the lowest-common-ancestor label (the root of a flat
// hierarchy being "*", exactly as Figure 1(b) prints fully generalized
// Sex values). The sensitive value, if the schema declares one, is
// appended verbatim. Rows are ordered by record ID for reproducibility.
func Render(s *attr.Schema, ps []anonmodel.Partition) (header []string, rows [][]string, err error) {
	header = s.Names()
	if s.Sensitive != "" {
		header = append(header, s.Sensitive)
	}
	type keyed struct {
		id  int64
		row []string
	}
	var all []keyed
	for _, p := range ps {
		cells := make([]string, s.Dims())
		for i, a := range s.Attrs {
			if a.Hierarchy != nil {
				label, _, gerr := a.Hierarchy.GeneralizeInterval(p.Box[i])
				if gerr != nil {
					return nil, nil, fmt.Errorf("core: render attribute %q: %w", a.Name, gerr)
				}
				cells[i] = label
				continue
			}
			cells[i] = p.Box[i].String()
		}
		for i := range p.Size() {
			row := make([]string, 0, len(header))
			row = append(row, cells...)
			if s.Sensitive != "" {
				row = append(row, p.Record(i).Sensitive)
			}
			all = append(all, keyed{id: p.Record(i).ID, row: row})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	rows = make([][]string, len(all))
	for i, k := range all {
		rows[i] = k.row
	}
	return header, rows, nil
}

// WriteCSV writes the rendered anonymized table as CSV.
func WriteCSV(w io.Writer, s *attr.Schema, ps []anonmodel.Partition) error {
	header, rows, err := Render(s, ps)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
