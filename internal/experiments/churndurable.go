package experiments

import (
	"fmt"
	"os"

	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// extChurnDurable is the durable variant of extChurn: the same
// delete+insert churn (six rounds of Records/10), but run through the
// write-ahead-logged store (internal/wal), checkpointing every
// Records/3 logged operations, instead of a bare in-memory tree. After
// every round the store is closed and recovered — as if the process had
// exited at that point — and the row records what the recovery cost:
// how many log-tail operations were replayed on top of the last
// checkpoint, how many KiB of snapshot and log were read, how many
// checkpoint pages, and the size of the (audited) post-recovery
// release. Frequent checkpoints keep the replayed tail (and so recovery
// time) short at the price of more checkpoint I/O during normal
// operation.
func extChurnDurable(cfg Config, _ Args) (*Table, error) {
	const k, rounds = 10, 6
	batch, checkpointEvery := cfg.Records/10, cfg.Records/3

	dir, err := os.MkdirTemp("", "spatialanon-churn-durable-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{
		Dir:             dir,
		Tree:            rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: cfg.BaseK},
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

	ch := cfg.newChurn(rounds, batch)
	for _, r := range ch.live {
		if err := st.Insert(r); err != nil {
			return nil, err
		}
	}

	res := &Table{
		Title: fmt.Sprintf("Extension: recovery cost under durable churn (k=%d, checkpoint every %d ops)", k, checkpointEvery),
		Columns: []Column{
			{"round", "%7d"}, {"live", "%8d"}, {"replayed", "%10d"}, {"snap KiB", "%10.1f"},
			{"log KiB", "%10.1f"}, {"reads", "%8d"}, {"parts", "%8d"},
		},
	}
	for round := 1; round <= rounds; round++ {
		if err := ch.round(st, batch); err != nil {
			return nil, err
		}
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
		res.Rows = append(res.Rows, []any{
			round, st.Len(), rs.Replayed,
			float64(rs.SnapshotBytes) / 1024, float64(rs.LogBytes) / 1024,
			rs.PagerReads, len(view),
		})
	}
	return res, nil
}
