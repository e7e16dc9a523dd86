package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/retry"
	"spatialanon/internal/serve"
	"spatialanon/internal/wal"
)

// The shard-level chaos matrix — the PR's failure-isolation claim made
// executable. Fault injection is confined to ONE shard (the victim,
// rotated by seed); the matrix then asserts the blast radius: exactly
// the victim's key range degrades, sibling shards keep acknowledging
// writes throughout, cross-shard reads name the victim's range in a
// typed partial error, joint releases are withheld rather than served
// under-k or stale, and after recovery every shard's state equals
// exactly its acknowledged prefix — per shard, deterministically,
// audited by verify.CrossShard on the way out.

// shardChaos carries one seed's bookkeeping through the taxonomy loop.
type shardChaos struct {
	c      *Coordinator
	victim int
	domain attr.Box

	degraded, transient      int
	siblingOK, partialChecks int
	// sentinels are records pre-routed to non-victim shards, spent one
	// per degradation event to prove siblings keep serving.
	sentinels []attr.Record
	extras    []attr.Record
}

// probeIsolation runs the failure-isolation battery while the victim's
// circuit is open: a sibling accepts a write, a cross-shard count
// returns a partial result naming exactly the victim's range, and the
// joint release is withheld.
func (cs *shardChaos) probeIsolation(t *testing.T) {
	t.Helper()
	if len(cs.sentinels) > 0 {
		s := cs.sentinels[0]
		cs.sentinels = cs.sentinels[1:]
		if err := cs.c.Insert(s); err != nil {
			t.Fatalf("sibling insert during shard %d degradation: %v", cs.victim, err)
		}
		cs.extras = append(cs.extras, s)
		cs.siblingOK++
	}
	_, err := cs.c.Count(cs.domain)
	if err == nil {
		t.Fatalf("cross-shard count claimed full coverage while shard %d is degraded", cs.victim)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPartial) {
		t.Fatalf("partial count error outside the taxonomy: %v", err)
	}
	if len(pe.Shards) != 1 || pe.Shards[0] != cs.victim {
		t.Fatalf("partial count names shards %v; fault injection was confined to shard %d", pe.Shards, cs.victim)
	}
	if _, err := cs.c.Release(0); !errors.Is(err, ErrPartial) {
		t.Fatalf("joint release with shard %d degraded: %v, want withheld with ErrPartial", cs.victim, err)
	}
	cs.partialChecks++
}

// submit pushes one record to acknowledgment through whatever the
// victim's fault schedule throws at it, running the isolation battery
// every time the victim's circuit opens. Mirrors the serve-level
// chaosSubmit, with one addition: a degradation anywhere but the
// victim fails the matrix — that would be blast radius.
func (cs *shardChaos) submit(t *testing.T, rec attr.Record, firstErr error) {
	t.Helper()
	err := firstErr
	for attempt := 0; ; attempt++ {
		if err == nil {
			return
		}
		if attempt >= 20 {
			t.Fatalf("record %d never committed: %v", rec.ID, err)
		}
		switch {
		case errors.Is(err, serve.ErrDegraded):
			cs.degraded++
			if !errors.Is(err, wal.ErrPoisoned) {
				t.Fatalf("degraded error chain lost the poison cause: %v", err)
			}
			if si := cs.c.route(rec.QI); si != cs.victim {
				t.Fatalf("shard %d degraded; fault injection was confined to shard %d", si, cs.victim)
			}
			sh := cs.c.fleet[cs.victim]
			if sh.srv.State() == serve.StateDegraded {
				cs.probeIsolation(t)
				// Resurrect the victim only. The fault budget is bounded,
				// so this converges; each failed attempt burns more of it.
				ok := false
				for a := 0; a < 10; a++ {
					if rerr := cs.c.Recover(cs.victim); rerr == nil {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("shard %d never resurrected: %v", cs.victim, sh.srv.Err())
				}
			}
			// The poison may have struck AFTER this op's frame committed
			// (a failed post-commit checkpoint): resolve the ambiguity
			// against the recovered store, as an idempotent client would.
			// Nothing is in flight on the victim here.
			if chaosIDs(sh.st)[rec.ID] {
				return
			}
		case errors.Is(err, serve.ErrRecovering), errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDeadlineExceeded):
			// Typed shed: not committed, resubmit.
		case retry.IsTransient(err):
			cs.transient++
		default:
			t.Fatalf("record %d: rejection outside the typed taxonomy: %v", rec.ID, err)
		}
		err = cs.c.Insert(rec)
	}
}

func TestChaosShardMatrix(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	const (
		nShards = 3
		nOps    = 60
	)

	// Matrix-wide coverage: the schedules must actually open the
	// victim's circuit, exercise recovery, and hit the isolation
	// battery — not just thread clean runs through the harness.
	var totalDegraded, totalRecoveries, totalInjected, totalPartials, totalSibling, totalAbsorbed atomic.Int64

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := detrng.New(int64(seed) + 211)
			victim := seed % nShards

			// The victim's WAL-side device: transient write/fsync faults
			// with torn frames; every third seed schedules one guaranteed
			// permanent fault so the degrade→resurrect circuit is hit by
			// construction, not rate luck. Seeds re-derive per shard.
			fcfg := fault.Config{
				TransientWriteRate: 0.10 * rng.Float64(),
				TransientSyncRate:  0.06 * rng.Float64(),
				PermanentWriteRate: 0.01 * rng.Float64(),
				After:              2, // Create's own manifest append passes
				MaxFaults:          2 + rng.Intn(4),
			}
			if seed%3 == 0 {
				fcfg = fault.Config{
					PermanentWriteRate: 1,
					After:              2 + rng.Intn(nOps),
					MaxFaults:          1 + rng.Intn(2),
				}
			}
			flaky := fault.NewInjector(int64(seed)+307, fcfg).Derive(victim)
			// The victim's pager-side device under the checkpoints:
			// transient reads/writes, torn write-backs, bit rot.
			inj := fault.NewInjector(int64(seed)+311, fault.Config{
				TransientReadRate:  0.04 * rng.Float64(),
				TransientWriteRate: 0.06 * rng.Float64(),
				TornWriteRate:      0.10 * rng.Float64(),
				BitRotRate:         0.10 * rng.Float64(),
				After:              4,
				MaxFaults:          1 + rng.Intn(3),
			}).Derive(victim)

			opts := testOptions(t, nShards)
			opts.CheckpointEvery = 7
			opts.Serve = serve.Options{MaxBatch: 4, QueueDepth: 16, ScrubEvery: 3}
			opts.Faults = func(id int, o *wal.Options) {
				if id != victim {
					return
				}
				o.AppendFault, o.PagerFault = flaky.Log, inj.Disk
			}

			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			finished := false
			defer func() {
				if !finished {
					c.Close()
				}
			}()

			all := makeRecords(t, nOps+24, int64(seed)+7)
			recs := all[:nOps]
			cs := &shardChaos{c: c, victim: victim, domain: testDomain(len(opts.Domain))}
			for _, s := range all[nOps:] {
				if c.route(s.QI) != victim {
					cs.sentinels = append(cs.sentinels, s)
				}
			}

			// The workload: inserts in small concurrent bursts so faults
			// land mid-group-commit, each burst resolved through the
			// taxonomy loop once it settles.
			for i := 0; i < nOps; {
				g := 1 + rng.Intn(3)
				if i+g > nOps {
					g = nOps - i
				}
				group := recs[i : i+g]
				errs := make([]error, g)
				var wg sync.WaitGroup
				for j := range group {
					j := j
					wg.Add(1)
					go func() { defer wg.Done(); errs[j] = c.Insert(group[j]) }()
				}
				wg.Wait()
				for j := range group {
					cs.submit(t, group[j], errs[j])
				}
				i += g
			}

			// One more resurrection if the very last commit's scrub opened
			// the circuit.
			if c.fleet[victim].srv.State() == serve.StateDegraded {
				if err := c.Recover(victim); err != nil {
					t.Fatalf("final resurrection: %v", err)
				}
			}
			perShard, partials, absorbed := c.Stats()

			// Stop serving, settle the victim's durable image (budgets are
			// spent or bounded, so scrub-and-repair converges), close.
			finished = true
			for _, sh := range c.fleet {
				if err := sh.srv.Close(); err != nil && sh.srv.Err() == nil {
					t.Fatalf("shard %d close: %v", sh.id, err)
				}
			}
			vst := c.fleet[victim].st
			settled := false
			for a := 0; a < 12 && !settled; a++ {
				if vst.Err() != nil {
					if err := vst.Recover(); err != nil {
						continue
					}
				}
				rep, err := vst.Scrub()
				if err != nil {
					continue
				}
				settled = len(rep.Corrupt) == 0
			}
			if !settled {
				t.Fatalf("victim image never settled clean: %v", vst.Err())
			}
			for _, sh := range c.fleet {
				if err := sh.st.Close(); err != nil {
					t.Fatalf("shard %d close store: %v", sh.id, err)
				}
			}

			// Acked-record contract, per shard: a clean reopen of the whole
			// fleet holds exactly the acknowledged records, each on the
			// shard that owns its key.
			want := make([]map[int64]bool, nShards)
			for i := range want {
				want[i] = make(map[int64]bool)
			}
			total := 0
			for _, r := range append(append([]attr.Record{}, recs...), cs.extras...) {
				want[c.route(r.QI)][r.ID] = true
				total++
			}
			clean := opts
			clean.Faults = nil
			c2, err := Open(clean)
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			c2done := false
			defer func() {
				if !c2done {
					c2.Close()
				}
			}()
			for i, sh := range c2.fleet {
				got := chaosIDs(sh.st)
				for id := range want[i] {
					if !got[id] {
						t.Fatalf("shard %d lost acknowledged record %d", i, id)
					}
				}
				if len(got) != len(want[i]) {
					t.Fatalf("shard %d holds %d records, %d were acknowledged", i, len(got), len(want[i]))
				}
			}

			// The audited joint release covers exactly the acknowledged set.
			rel, err := c2.Release(0)
			if err != nil {
				t.Fatalf("joint release after recovery: %v", err)
			}
			relIDs := make(map[int64]bool)
			for _, p := range rel {
				for i := range p.Size() {
					relIDs[p.Record(i).ID] = true
				}
			}
			if len(relIDs) != total {
				t.Fatalf("joint release covers %d records, %d were acknowledged", len(relIDs), total)
			}

			// Recovery determinism: a second clean reopen must export the
			// byte-identical canonical cut.
			e1, err := c2.Export(0)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			c2done = true
			if err := c2.Close(); err != nil {
				t.Fatal(err)
			}
			c3, err := Open(clean)
			if err != nil {
				t.Fatalf("second clean reopen: %v", err)
			}
			defer c3.Close()
			e2, err := c3.Export(0)
			if err != nil {
				t.Fatalf("export after second reopen: %v", err)
			}
			if !partitionsEqual(e1, e2) {
				t.Fatal("export differs across clean reopens: recovery is not deterministic")
			}

			var recov int64
			for _, s := range perShard {
				recov += s.Serve.Recoveries
			}
			totalDegraded.Add(int64(cs.degraded))
			totalRecoveries.Add(recov)
			totalInjected.Add(int64(flaky.Injected() + inj.Injected()))
			totalPartials.Add(partials)
			totalAbsorbed.Add(absorbed)
			totalSibling.Add(int64(cs.siblingOK))
		})
	}

	t.Cleanup(func() {
		if testing.Short() {
			return
		}
		if totalInjected.Load() == 0 {
			t.Error("matrix injected no faults at all")
		}
		if totalDegraded.Load() == 0 || totalRecoveries.Load() == 0 {
			t.Errorf("matrix never exercised the per-shard degrade→resurrect circuit (degraded=%d recoveries=%d)",
				totalDegraded.Load(), totalRecoveries.Load())
		}
		if totalPartials.Load() == 0 || totalSibling.Load() == 0 {
			t.Errorf("matrix never exercised failure isolation (partial reads=%d sibling inserts=%d)",
				totalPartials.Load(), totalSibling.Load())
		}
		if totalAbsorbed.Load() == 0 {
			t.Error("the victims' log writers — the one retry owner — absorbed no transient fault matrix-wide")
		}
	})
}

// TestChaosShardCrashMatrix kills the victim shard at EVERY durable
// operation in its schedule — WAL frame appends and checkpoint page
// write-backs share one crash clock, odd crash points tear the fatal
// frame — and asserts the fleet-level committed-prefix contract: the
// siblings never miss a beat, the crashing op is the only ambiguous
// one, and a clean reopen recovers each shard to exactly its
// acknowledged prefix (plus at most that one in-flight op). A fired
// crash stays dead, so unlike the flaky matrix there is no in-process
// resurrection: the reopen IS the recovery path under test.
func TestChaosShardCrashMatrix(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	const (
		nShards = 3
		nOps    = 30
	)
	var totalCrashes, totalAmbiguous, totalSibling atomic.Int64

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			victim := seed % nShards
			recs := makeRecords(t, nOps, int64(seed)+401)
			domain := testDomain(len(recs[0].QI))

			mkOpts := func(crash *fault.Crash) Options {
				opts := testOptions(t, nShards)
				opts.CheckpointEvery = 9
				if crash != nil {
					opts.Faults = func(id int, o *wal.Options) {
						if id != victim {
							return
						}
						o.AppendFault, o.PagerFault = crash.Log, crash.Disk
					}
				}
				return opts
			}

			// Dry run: count the victim's durable operations with a crash
			// point that never fires. That count is this seed's matrix.
			counter := &fault.Crash{}
			cd, err := New(mkOpts(counter))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := cd.Insert(r); err != nil {
					t.Fatalf("dry run insert: %v", err)
				}
			}
			if err := cd.Close(); err != nil {
				t.Fatal(err)
			}
			// The census pins the victim's crash clock, seed by seed.
			total := counter.Ops()
			if want := []int{15, 16, 18}[seed]; total != want {
				t.Fatalf("census %s: %d durable ops, want %d", t.Name(), total, want)
			}

			for at := 1; at <= total; at++ {
				crash := &fault.Crash{At: at, Torn: []float64{0, 0.5, 1}[at%3]}
				opts := mkOpts(crash)
				clean := opts
				clean.Faults = nil

				c, err := New(opts)
				if err != nil {
					// The victim died inside Create: nothing durable exists
					// for that range, and a clean Open of the fleet must say
					// so rather than fabricate a shard.
					if !errors.As(err, new(*fault.CrashError)) {
						t.Fatalf("at=%d: create failure outside the crash taxonomy: %v", at, err)
					}
					if _, err := Open(clean); err == nil {
						t.Fatalf("at=%d: Open invented a fleet out of a dead Create", at)
					}
					totalCrashes.Add(1)
					continue
				}

				want := make([]map[int64]bool, nShards)
				for i := range want {
					want[i] = make(map[int64]bool)
				}
				ambiguous := make(map[int64]bool)
				victimDead := false
				for _, r := range recs {
					si := c.route(r.QI)
					err := c.Insert(r)
					switch {
					case err == nil:
						want[si][r.ID] = true
					case si != victim:
						t.Fatalf("at=%d: sibling shard %d rejected a write: %v", at, si, err)
					case !victimDead:
						// The crash point fired mid-op. The op's frame may
						// have become durable before a post-commit page write
						// died, so its fate is ambiguous — a client whose ack
						// was lost.
						if !errors.As(err, new(*fault.CrashError)) {
							t.Fatalf("at=%d: first victim rejection lost the crash cause: %v", at, err)
						}
						ambiguous[r.ID] = true
						victimDead = true
					default:
						// Dead shard: fail-fast typed rejection, nothing
						// durable, siblings untouched.
						if !errors.Is(err, serve.ErrDegraded) && !errors.As(err, new(*fault.CrashError)) {
							t.Fatalf("at=%d: dead-shard rejection outside the taxonomy: %v", at, err)
						}
					}
				}

				if victimDead {
					// Blast radius while the victim is down: reads go
					// partial naming exactly the victim; releases withhold.
					_, cerr := c.Count(domain)
					var pe *PartialError
					if !errors.As(cerr, &pe) || len(pe.Shards) != 1 || pe.Shards[0] != victim {
						t.Fatalf("at=%d: partial count %v, want exactly shard %d named", at, cerr, victim)
					}
					if _, rerr := c.Release(0); !errors.Is(rerr, ErrPartial) {
						t.Fatalf("at=%d: joint release with a dead shard: %v", at, rerr)
					}
					totalSibling.Add(1)
				}
				c.Close() // the dead victim may refuse; the reopen is the arbiter
				if crash.Err() == nil {
					t.Fatalf("at=%d: crash point never fired", at)
				}

				// Clean reopen: committed-prefix recovery per shard.
				c2, err := Open(clean)
				if err != nil {
					t.Fatalf("at=%d: fleet recovery failed: %v", at, err)
				}
				fleetSize := 0
				for i, sh := range c2.fleet {
					got := chaosIDs(sh.st)
					fleetSize += len(got)
					for id := range want[i] {
						if !got[id] {
							t.Fatalf("at=%d: shard %d lost acknowledged record %d", at, i, id)
						}
					}
					for id := range got {
						if !want[i][id] && !(i == victim && ambiguous[id]) {
							t.Fatalf("at=%d: shard %d holds record %d that was never acknowledged", at, i, id)
						}
					}
				}

				// The joint release composes only when every shard is
				// releasable on its own (empty or >= k records); a sub-k
				// shard must BLOCK it — withheld is correct, under-k never.
				releasable := true
				for _, sh := range c2.fleet {
					if n := len(chaosIDs(sh.st)); n > 0 && n < testK {
						releasable = false
					}
				}
				rel, rerr := c2.Release(0)
				if !releasable {
					if rerr == nil {
						t.Fatalf("at=%d: joint release served with a sub-k shard", at)
					}
				} else if rerr != nil {
					t.Fatalf("at=%d: joint release after recovery: %v", at, rerr)
				} else {
					relIDs := make(map[int64]bool)
					for _, p := range rel {
						for i := range p.Size() {
							relIDs[p.Record(i).ID] = true
						}
					}
					if len(relIDs) != fleetSize {
						t.Fatalf("at=%d: joint release covers %d records, fleet holds %d", at, len(relIDs), fleetSize)
					}
				}
				// The canonical cut works regardless of per-shard under-k:
				// the global merge crosses the seams.
				if fleetSize >= testK {
					if _, err := c2.Export(0); err != nil {
						t.Fatalf("at=%d: export after recovery: %v", at, err)
					}
				}
				if err := c2.Close(); err != nil {
					t.Fatalf("at=%d: close recovered fleet: %v", at, err)
				}
				totalCrashes.Add(1)
				if len(ambiguous) > 0 {
					totalAmbiguous.Add(1)
				}
			}
		})
	}

	t.Cleanup(func() {
		if testing.Short() {
			return
		}
		if totalCrashes.Load() == 0 {
			t.Error("matrix fired no crash points")
		}
		if totalSibling.Load() == 0 {
			t.Error("matrix never observed siblings serving across a dead shard")
		}
		if totalAmbiguous.Load() == 0 {
			t.Error("matrix never produced an ambiguous in-flight op")
		}
	})
}
