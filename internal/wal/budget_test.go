package wal

import (
	"testing"

	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
)

// TestRetryBudget is the one rule for transient faults at each site that
// meets them: a log write, a recovery page read and a bulk loader page
// charge absorb retry.Budget-1 consecutive transient faults and surface
// the next with its transient marker; a log fsync absorbs none.
func TestRetryBudget(t *testing.T) {
	// appendOne inserts one record into a fresh store whose log files sit
	// behind in; After: 2 in the configs below passes Create's manifest
	// append (one write, one sync).
	appendOne := func(t *testing.T, in *fault.Injector) error {
		opts := testOpts(t, 3)
		opts.AppendFault = in.Log
		st, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.Insert(makeRecords(opts.Tree.Schema, 1, 5)[0])
	}
	sites := []struct {
		name    string
		cfg     fault.Config
		absorbs int
		run     func(t *testing.T, in *fault.Injector) error
	}{
		{"log write", fault.Config{TransientWriteRate: 1, After: 2}, retry.Budget - 1, appendOne},
		{"log fsync", fault.Config{TransientSyncRate: 1, After: 2}, 0, appendOne},
		{"recovery page read", fault.Config{TransientReadRate: 1}, retry.Budget - 1, func(t *testing.T, in *fault.Injector) error {
			opts := testOpts(t, 3)
			st, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range makeRecords(opts.Tree.Schema, 20, 5) {
				if err := st.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			st.Close()
			opts.PagerFault = in.Disk
			if st, err = Open(opts); err == nil {
				st.Close()
			}
			return err
		}},
		{"bulk loader page charge", fault.Config{TransientWriteRate: 1}, retry.Budget - 1, func(t *testing.T, in *fault.Injector) error {
			tree, err := rplustree.New(testOpts(t, 3).Tree)
			if err != nil {
				t.Fatal(err)
			}
			// One record spills one page, and Flush's write-back of it is
			// the load's only page write.
			bl, err := rplustree.NewBulkLoader(tree, rplustree.BulkLoadConfig{Fault: func(d pager.Disk) pager.Disk { return in.Disk(d) }})
			if err != nil {
				t.Fatal(err)
			}
			if err := bl.Insert(makeRecords(tree.Config().Schema, 1, 5)[0]); err != nil {
				t.Fatal(err)
			}
			return bl.Flush()
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			// MaxFaults 0 would mean no limit: a site absorbing none is
			// only run with one fault.
			for faults := max(site.absorbs, 1); faults <= site.absorbs+1; faults++ {
				cfg := site.cfg
				cfg.MaxFaults = faults
				in := fault.NewInjector(1, cfg)
				err := site.run(t, in)
				switch {
				case in.Injected() != faults:
					t.Fatalf("%d faults injected, want %d", in.Injected(), faults)
				case faults == site.absorbs && err != nil:
					t.Fatalf("%d consecutive transient faults not absorbed: %v", faults, err)
				case faults > site.absorbs && !retry.IsTransient(err):
					t.Fatalf("%d consecutive transient faults: error %v, want a transient one", faults, err)
				}
			}
		})
	}
}
