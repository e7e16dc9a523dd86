# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build loc loc-check ckpt-volume test vet lint lint-json chaos chaos-serve chaos-shard crash throughput zeroalloc fuzz bench cover experiments examples clean

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

# The size gate: `make loc`'s total may not exceed LOC_CEILING, which
# is the total of the last PR that moved it. A PR that adds net
# non-test lines must raise the number here, in its own diff, where a
# reviewer sees it; a PR that removes lines lowers it to its new total.
LOC_CEILING = 19062
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$total non-test lines exceed the ceiling of $(LOC_CEILING) (Makefile LOC_CEILING)"; exit 1; \
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
# determinism guarantee, not perf noise.
test: vet
	$(GO) test -race ./...

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
# failing crash point is named: a churn workload crashed at every
# durable operation (each log append and checkpoint page write, with
# torn final frames) across a seed matrix, asserting recovery always
# converges to an audited, k-safe state (internal/wal). Covers the
# per-op matrix, the group-commit matrix (torn multi-record batch
# frames must be all-or-nothing) and the incremental-checkpoint matrix
# (a chain of checkpoints sharing leaf pages and reusing freed slots).
crash:
	$(GO) test ./internal/wal/ -run 'TestCrashMatrix' -v

# Quick serving-layer throughput smoke: the group-commit benchmark
# against the per-op baseline at a short benchtime, and the one-op
# commit on a 200 000-record store (publish cost) — catches gross
# throughput regressions without a full bench sweep.
throughput:
	$(GO) test -run NONE -bench 'StorePerOpInsert|ServeGroupCommit|PublishLargeStore|ServeReadsDuringWrites|ServePointQuery|ServeRangeQuery' -benchmem -benchtime 100ms ./internal/serve/

# Zero-alloc smoke: the warm read path (sessions, sfc key path,
# routing lookups) must report 0 allocs/op, and so must the row codec
# (encode into spare capacity, decode into the caller's vector); a leaf
# decodes with a fixed number of allocations however many records it
# holds, a publish allocates a few objects per tree level however
# many leaves there are, a buffer-tree load at most 1.40 objects per
# record, and draining a generator a few objects per 4 096-record chunk
# and none per record. These are regular tests built on
# testing.AllocsPerRun, so CI enforces the budget on every run; this
# target names them for quick local iteration.
zeroalloc:
	$(GO) test -run 'ZeroAlloc|TestDecodeLeafAllocations|TestPublishCostIsOChanged|TestBulkLoadAllocsPerRecord|TestCollectAllocsPerChunk' -v ./internal/routing/ ./internal/query/ ./internal/serve/ ./internal/sfc/ ./internal/attr/ ./internal/rplustree/ ./internal/dataset/

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

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hospital
	$(GO) run ./examples/streaming
	$(GO) run ./examples/workload

clean:
	rm -rf test_output.txt .bench_tmp .bench_out .bench_build
