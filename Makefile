# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build loc loc-check ckpt-volume test vet lint lint-json chaos chaos-serve chaos-shard crash sync-mutants throughput zeroalloc fuzz bench cover experiments scale examples clean

all: vet test

build:
	$(GO) build ./...

# Non-test Go lines per top-level package (cmd/x, examples/x,
# internal/x) and the total outside bench/ and testdata/ — the number
# the ROADMAP's size target is stated in — then the five largest files,
# which is where the next deletion pass looks first. The total is exactly
# `find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l`.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs wc -l | grep -v ' total$$'
loc:
	@$(LOC_FILES) \
		| awk '{ n = split($$2, d, "/"); pkg = n > 3 ? d[2] "/" d[3] : "(root)"; lines[pkg] += $$1; total += $$1 } \
			END { for (p in lines) printf "%7d %s\n", lines[p], p; printf "%7d total\n", total }' \
		| sort -k2
	@echo "largest files:"; $(LOC_FILES) | sort -rn | head -5

# The size gate, a ratchet: `make loc`'s total must equal LOC_CEILING,
# the total of the last change that moved it. A change that adds net
# non-test lines raises the number here, in its own diff; one that
# removes lines lowers it to its new total.
LOC_CEILING = 19188
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -ne $(LOC_CEILING) ]; then \
		echo "loc-check: $$total non-test lines, but LOC_CEILING in the Makefile says $(LOC_CEILING); set it to $$total"; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines, ceiling $(LOC_CEILING)"

# What a checkpoint writes, as page counts and bytes: the incremental
# checkpoint after 100 updates and after one against a full one on 20 000
# records (4 and 89 page writes), pages.db against the live image over 200
# checkpoints of churn (worst 2.93, 25 full), leaf, node and delta bytes
# per checkpoint of the benchmark's churn on its 200 000-record store
# (27 787 B of leaves and deltas; reopen reads 1 445 pages), page writes
# per round, compactions included, on a shard-sized one (50.2), the byte
# table of serve_large's nominal window (page slots + log frames per
# acknowledged byte: the gated write_amp, exact per seed — 15 page writes,
# 35.5 log bytes per operation, 3.316) and what reopening it read, and
# what an incremental attempt that overran the space rule had taken when
# it was abandoned for a full one. The tests gate the counts; this target
# puts them in the log.
ckpt-volume:
	$(GO) test ./internal/wal -run 'TestIncrementalCheckpointWriteVolume|TestPageFileStaysBounded|TestSpaceRuleRedo|TestLeafDeltaWriteVolume|TestCheckpointVolumeLongRun|TestServeLargeWindowBytes' -v

# `make vet` is the whole static gate: the stock go vet suite plus
# anonylint, the project's multichecker — the rule table of
# internal/lint over the module loaded as one program
# (`go run ./cmd/anonylint -list` prints the rules and their scopes).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/anonylint ./...

# anonylint alone, for quick iteration on lint findings.
lint:
	$(GO) run ./cmd/anonylint ./...

# anonylint with machine-readable output (one JSON object per finding),
# for CI annotation and tooling.
lint-json:
	$(GO) run ./cmd/anonylint -json ./...

# `make test` always vets first: the robustness layer threads errors
# through many call sites and vet's unused-result checks are cheap
# insurance. The whole suite runs under the race detector (≈2 min on
# two cores) — no hand-kept package list to fall out of date: races in
# the parallel and serving layers are correctness bugs in the
# determinism guarantee, not perf noise. The whole output is kept in
# test_output.txt and printed; on a failure every `--- FAIL`, `FAIL`
# and `panic:` line follows it, so the failing test is named at the end
# of the log however long the output above it.
TEST_FAILURES = grep -e '--- FAIL' -e '^FAIL' -e 'panic:' test_output.txt
test: vet
	@status=0; $(GO) test -race ./... > test_output.txt 2>&1 || status=$$?; \
	cat test_output.txt; \
	if [ $$status -ne 0 ]; then \
		echo "make test: go test exited $$status; failing lines:"; $(TEST_FAILURES); exit $$status; \
	fi

# The seeded fault-schedule harness (internal/verify), verbosely. This
# target and the three matrices below are local, verbose forms: CI's
# `go test -race ./...` already runs the same tests with the same seeds
# (neither passes -short), so it has no step of its own for them.
chaos:
	$(GO) test ./internal/verify/ -run 'TestChaos' -v

# The graceful-degradation gate, the serve-level chaos matrix
# (internal/serve): seeded schedules of torn WAL writes, flaky fsyncs,
# checkpoint bit rot and bounded permanent faults against the full
# server, asserting it either
# degrades to read-only on its last audited epoch or resurrects to an
# audited k-safe state — never losing an acknowledged write, never
# serving an unaudited view.
chaos-serve:
	$(GO) test ./internal/serve/ -run 'TestChaosServeMatrix' -v

# The failure-isolation gate, the shard-level chaos matrix
# (internal/shard): fault injection confined to one victim shard per
# seed — flaky fsyncs, torn WAL writes, checkpoint bit rot, plus a
# crash at every durable operation — asserting sibling shards keep
# serving, cross-shard reads name the
# degraded range in a typed partial error, joint releases are withheld
# rather than served stale or under-k, and recovery restores exactly
# each shard's acknowledged prefix, deterministically. Runs under the
# race detector: shard routing is the concurrency seam of the fleet.
chaos-shard:
	$(GO) test -race ./internal/shard/ -run 'TestChaosShard' -v

# The crash-consistency gate, the WAL crash matrix, verbosely so a
# failing crash point is named: a churn workload on an in-memory file
# system crashed at every durable operation (each log append and
# checkpoint page write, with torn final frames) across a seed matrix,
# asserting recovery from both images of the files — process death, and
# power loss (only synced bytes under synced names) — always converges
# to an audited, k-safe state (internal/wal). Covers the
# per-op matrix, the group-commit matrix (torn multi-record batch
# frames must be all-or-nothing) and the incremental-checkpoint matrix
# (a chain of checkpoints sharing leaf pages and reusing freed slots).
crash:
	$(GO) test ./internal/wal/ -run 'TestCrashMatrix' -v

# Every Sync of the store is load-bearing. For each of its three sync
# sites — the log append's fsync, the page file's before a checkpoint is
# published, the directory's after the rename — build a mutant without it
# (a copy under TMPDIR swapped in by go test -overlay; the tree is not
# edited) and require the crash matrices to fail it on a power-loss row,
# and on no process-death row. Each mutant's first failing row is printed.
TMPDIR ?= /tmp
SYNC_MUTANTS = 'writer.go|return w.f.Sync()|return nil' \
	'checkpoint.go|if err := s.pg.Sync(); err != nil {|if err := error(nil); err != nil {' \
	'checkpoint.go|err = dir.Sync()|err = nil'
sync-mutants:
	@tmp=$$(mktemp -d "$(TMPDIR)/sync-mutants.XXXXXX") && trap 'rm -rf "$$tmp"' EXIT; \
	for m in $(SYNC_MUTANTS); do \
		file=$${m%%|*}; rest=$${m#*|}; from=$${rest%%|*}; to=$${rest#*|}; \
		awk -v from="$$from" -v to="$$to" '(i = index($$0, from)) { $$0 = substr($$0, 1, i - 1) to substr($$0, i + length(from)); n++ } { print } END { exit n != 1 }' \
			internal/wal/$$file > "$$tmp/$$file" || { echo "sync-mutants: '$$from' is not on exactly one line of internal/wal/$$file"; exit 1; }; \
		printf '{"Replace":{"%s":"%s"}}' "$(CURDIR)/internal/wal/$$file" "$$tmp/$$file" > "$$tmp/overlay.json"; \
		if $(GO) test -count=1 -overlay "$$tmp/overlay.json" ./internal/wal -run TestCrashMatrix > "$$tmp/out" 2>&1; then \
			echo "sync-mutants: the crash matrices pass without '$$from' in internal/wal/$$file"; exit 1; fi; \
		if grep -q ': at=[0-9]* process-death' "$$tmp/out"; then \
			grep -m1 ': at=[0-9]* process-death' "$$tmp/out"; echo "sync-mutants: without '$$from' a process-death row fails"; exit 1; fi; \
		grep -m1 -B1 ': at=[0-9]* power-loss' "$$tmp/out" | sed 's/^ *//' || { cat "$$tmp/out"; echo "sync-mutants: without '$$from' no power-loss row fails"; exit 1; }; \
		echo "sync-mutants: without '$$from' in internal/wal/$$file: failed as above"; \
	done

# Quick serving-layer throughput smoke: the group-commit benchmark
# against the per-op baseline at a short benchtime, the one-op commit on
# a 200 000-record store (publish cost), and a store's preload (Create,
# one batch of 50 000 inserts, Close: the store half of the benchmark's
# set-up) — catches gross throughput regressions without a full bench
# sweep.
throughput:
	$(GO) test -run NONE -bench 'StorePerOpInsert|ServeGroupCommit|PublishLargeStore|ServeReadsDuringWrites|ServePointQuery|ServeRangeQuery' -benchmem -benchtime 100ms ./internal/serve/
	$(GO) test -run NONE -bench 'Preload' -benchmem -benchtime 5x ./internal/wal/

# Zero-alloc smoke: the warm read path (sessions, sfc key path,
# routing lookups) must report 0 allocs/op, and so must the row codec
# (encode into spare capacity, decode into the caller's vector); a leaf
# decodes with a fixed number of allocations however many records it
# holds, a publish allocates a few objects per tree level however
# many leaves there are, a buffer-tree load at most 0.578 objects per
# record (and, one-shot on 50 000 records, 182.051 B per record, where
# buffers that copied records at every level took 307.484) and a tuple
# load at most 0.43 objects, a delete and re-insert that
# leave their leaf at or above k none, draining a generator a few
# objects per 4 096-record chunk and none per record, a tree audit a
# few objects per tree level however many nodes, and a release audit at
# most four arrays at any n, on a dense 100 000-record family an exact
# 0.14 B per record (Release) and 12.2 B (Releases), and proving that
# family's base from leaves (verify.NewFamily: scan copy plus Release)
# an exact 59.8 B, so a second audit of the base shows. These are regular
# tests built on testing.AllocsPerRun, so CI enforces the budget on
# every run; this target names them for quick local iteration.
zeroalloc:
	$(GO) test -run 'ZeroAlloc|TestDecodeLeafAllocations|TestPublishCostIsOChanged|TestBulkLoadAllocsPerRecord|TestBulkLoadBytesPerRecord|TestInsertAllocsPerRecord|TestDeleteInsertAllocs|TestCollectAllocsPerChunk|TestAuditAllocations|TestAuditBytesPerRecord|TestNewFamilyBytesPerRecord' -v ./internal/routing/ ./internal/query/ ./internal/serve/ ./internal/sfc/ ./internal/attr/ ./internal/rplustree/ ./internal/dataset/ ./internal/verify/

# Every fuzz target in the repository, FUZZTIME each (`go test -fuzz`
# takes one target and one package per run). CI runs this with
# FUZZTIME=10s; committed seed corpora live under testdata/fuzz/.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=NONE -fuzz='^FuzzRowRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=NONE -fuzz='^FuzzDecodeCheckpoint$$' -fuzztime=$(FUZZTIME) ./internal/rplustree/
	$(GO) test -run=NONE -fuzz='^FuzzInsertDeleteInvariants$$' -fuzztime=$(FUZZTIME) ./internal/rplustree/
	$(GO) test -run=NONE -fuzz='^FuzzHilbertRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/sfc/
	$(GO) test -run=NONE -fuzz='^FuzzLookupVsLinear$$' -fuzztime=$(FUZZTIME) ./internal/routing/
	$(GO) test -run=NONE -fuzz='^FuzzShardRouting$$' -fuzztime=$(FUZZTIME) ./internal/shard/
	$(GO) test -run=NONE -fuzz='^FuzzReleaseAudits$$' -fuzztime=$(FUZZTIME) ./internal/verify/

# The benchmark of record (bench/README.md, BENCHMARK.json): every
# workload, a fresh process each. The per-package `go test -bench`
# microbenchmarks remain for measuring while you work.
bench:
	$(GO) run ./bench -workload all

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -fig all

# Claim 1 at one core and at all of them: every parallel stage runs on
# GOMAXPROCS workers, so GOMAXPROCS=1 is the one-core run (collector
# included). ROADMAP A reads the loader's and Mondrian's speed-ups here.
scale:
	GOMAXPROCS=1 $(GO) run ./cmd/experiments -fig scale -sizes 150000,800000
	$(GO) run ./cmd/experiments -fig scale -sizes 150000,800000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hospital
	$(GO) run ./examples/streaming
	$(GO) run ./examples/workload

clean:
	rm -rf test_output.txt .bench_tmp .bench_out .bench_build
