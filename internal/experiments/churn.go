package experiments

import (
	"errors"
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
)

// churnTarget is what a churn round mutates: the bare index (extChurn)
// or the durable store around it (extChurnDurable).
type churnTarget interface {
	Insert(rec attr.Record) error
	Delete(id int64, qi []float64) (bool, error)
}

// churn is the turnover both churn experiments apply: an initial
// population, and rounds that each delete the oldest batch of live
// records and insert a batch of fresh ones.
type churn struct {
	live   []attr.Record
	fresh  *dataset.Stream
	nextID int64
}

func (c Config) newChurn(rounds, batch int) *churn {
	return &churn{
		live:   dataset.GenerateLandsEnd(c.Records, c.Seed),
		fresh:  dataset.LandsEndStream(rounds*batch, c.Seed+1),
		nextID: 10_000_000,
	}
}

// round applies one round to t and to the live set.
func (c *churn) round(t churnTarget, batch int) error {
	batch = min(batch, len(c.live))
	for _, r := range c.live[:batch] {
		found, err := t.Delete(r.ID, r.QI)
		if err != nil {
			return err
		}
		if !found {
			return errors.New("experiments: delete of live record failed")
		}
	}
	c.live = c.live[batch:]
	incoming := c.fresh.NextBatch(batch)
	for i := range incoming {
		incoming[i].ID = c.nextID
		c.nextID++
		if err := t.Insert(incoming[i]); err != nil {
			return err
		}
	}
	c.live = append(c.live, incoming...)
	return nil
}

// extChurn is an extension experiment beyond the paper's evaluation:
// Section 2.2 argues the index supports "insertions, deletions and
// updates", but Figures 7(b)/11 only exercise insert-only growth. This
// experiment subjects the live index to sustained churn — eight rounds
// that each delete Records/10 old records and insert as many new ones —
// and tracks the published view's quality and validity against a fresh
// bulk build over the same live set, the "no-churn" reference. The
// question it answers: does the anonymization *degrade* under turnover
// (MBRs only ever grew under inserts; deletions must tighten them), or
// does quality stay at bulk-build levels?
func extChurn(cfg Config, _ Args) (*Table, error) {
	const k, rounds = 10, 8
	batch := cfg.Records / 10
	schema := dataset.LandsEndSchema()

	rt, err := cfg.newRTree(false)
	if err != nil {
		return nil, err
	}
	ch := cfg.newChurn(rounds, batch)
	if err := rt.Load(ch.live); err != nil {
		return nil, err
	}
	ch.live = append([]attr.Record(nil), ch.live...)

	res := &Table{
		Title: fmt.Sprintf("Extension: quality under churn (delete+insert rounds, k=%d)", k),
		Columns: []Column{
			{"round", "%7d"}, {"live", "%8d"}, {"parts", "%10d"},
			{"churned CM", "%12.1f"}, {"rebuilt CM", "%14.1f"}, {"ratio", "%7.2fx"},
		},
	}
	for round := 1; round <= rounds; round++ {
		if err := ch.round(rt, batch); err != nil {
			return nil, err
		}
		view, err := rt.Partitions(k)
		if err != nil {
			return nil, err
		}
		if err := anonmodel.CheckAnonymity(view, anonmodel.KAnonymity{K: k}); err != nil {
			return nil, err
		}
		domain := attr.DomainOf(schema.Dims(), ch.live)

		ref, err := cfg.newRTree(false)
		if err != nil {
			return nil, err
		}
		cp := make([]attr.Record, len(ch.live))
		copy(cp, ch.live)
		if err := ref.Load(cp); err != nil {
			return nil, err
		}
		refView, err := ref.Partitions(k)
		if err != nil {
			return nil, err
		}
		churned, rebuilt := quality.Certainty(schema, view, domain), quality.Certainty(schema, refView, domain)
		ratio := 0.0
		if rebuilt > 0 {
			ratio = churned / rebuilt
		}
		res.Rows = append(res.Rows, []any{round, len(ch.live), len(view), churned, rebuilt, ratio})
	}
	return res, nil
}
