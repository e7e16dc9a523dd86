package experiments

import (
	"io"
	"os"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// ExtChurnDurable is the durable variant of ExtChurn: the same
// delete+insert churn, but run through the write-ahead-logged store
// (internal/wal) instead of a bare in-memory tree. After every round
// the store is closed and recovered — as if the process had exited at
// that point — and the row records what the recovery cost: how many
// log-tail operations were replayed on top of the last checkpoint, and
// how many bytes of snapshot and log were read. The knob under test is
// the checkpoint interval: frequent checkpoints keep the replayed tail
// (and so recovery time) short at the price of more checkpoint I/O
// during normal operation.

// ExtChurnDurableRow is one churn round's recovery measurement.
type ExtChurnDurableRow struct {
	Round int
	Live  int
	// Replayed is the committed log-tail length recovery applied on top
	// of the checkpoint snapshot.
	Replayed int
	// SnapshotBytes and LogBytes are the recovery read volume.
	SnapshotBytes int
	LogBytes      int
	// PagerReads counts checkpoint-page reads during recovery.
	PagerReads int64
	// Partitions is the size of the (audited) post-recovery release.
	Partitions int
}

// ExtChurnDurableResult is the whole experiment. Its K echoes the
// already validated Config parameter for rendering;
// anonylint:k-validated (Config.Validate rejects k < 2).
type ExtChurnDurableResult struct {
	K               int
	CheckpointEvery int
	Rows            []ExtChurnDurableRow
}

// ExtChurnDurable churns a durable store for `rounds` rounds of
// `batch` deletes + `batch` inserts, recovering from disk after each
// round. checkpointEvery is the store's automatic checkpoint interval
// in logged operations.
func ExtChurnDurable(cfg Config, rounds, batch, checkpointEvery int) (*ExtChurnDurableResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const k = 10
	schema := dataset.LandsEndSchema()

	dir, err := os.MkdirTemp("", "spatialanon-churn-durable-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{
		Dir:             dir,
		Tree:            rplustree.Config{Schema: schema, BaseK: cfg.BaseK},
		CheckpointEvery: checkpointEvery,
		// The experiment measures recovery I/O volume, not device sync
		// latency; the byte streams are identical either way.
		NoSync: true,
	}
	st, err := wal.Create(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()

	initial := dataset.GenerateLandsEnd(cfg.Records, cfg.Seed)
	for _, r := range initial {
		if err := st.Insert(r); err != nil {
			return nil, err
		}
	}
	live := append([]attr.Record(nil), initial...)
	fresh := dataset.LandsEndStream(rounds*batch, cfg.Seed+1)
	nextID := int64(10_000_000)

	res := &ExtChurnDurableResult{K: k, CheckpointEvery: checkpointEvery}
	for round := 1; round <= rounds; round++ {
		if batch > len(live) {
			batch = len(live)
		}
		for _, r := range live[:batch] {
			found, err := st.Delete(r.ID, r.QI)
			if err != nil {
				return nil, err
			}
			if !found {
				return nil, errDeleteFailed(r.ID)
			}
		}
		live = live[batch:]
		incoming := fresh.NextBatch(batch)
		for i := range incoming {
			incoming[i].ID = nextID
			nextID++
			if err := st.Insert(incoming[i]); err != nil {
				return nil, err
			}
		}
		live = append(live, incoming...)

		// Simulate a process exit here and recover from disk.
		if err := st.Close(); err != nil {
			return nil, err
		}
		st, err = wal.Open(opts)
		if err != nil {
			return nil, err
		}
		rs := st.RecoveryStats()

		view, err := st.Release(k)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtChurnDurableRow{
			Round:         round,
			Live:          st.Len(),
			Replayed:      rs.Replayed,
			SnapshotBytes: rs.SnapshotBytes,
			LogBytes:      rs.LogBytes,
			PagerReads:    rs.PagerReads,
			Partitions:    len(view),
		})
	}
	return res, nil
}

// Print renders the experiment as a table.
func (r *ExtChurnDurableResult) Print(w io.Writer) {
	fprintf(w, "Extension: recovery cost under durable churn (k=%d, checkpoint every %d ops)\n",
		r.K, r.CheckpointEvery)
	fprintf(w, "%7s %8s %10s %10s %10s %8s %8s\n",
		"round", "live", "replayed", "snap KiB", "log KiB", "reads", "parts")
	for _, row := range r.Rows {
		fprintf(w, "%7d %8d %10d %10.1f %10.1f %8d %8d\n",
			row.Round, row.Live, row.Replayed,
			float64(row.SnapshotBytes)/1024, float64(row.LogBytes)/1024,
			row.PagerReads, row.Partitions)
	}
}
