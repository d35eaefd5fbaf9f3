# make check mirrors .github/workflows/ci.yml locally.
GO ?= go

.PHONY: check build fmtcheck vet perfbench-build xvet transcheck plancheck protocheck test race chaos batch-smoke crash-smoke fuzz-smoke bench-smoke explain-smoke planquality-smoke

check: build fmtcheck vet perfbench-build xvet transcheck plancheck protocheck test race chaos batch-smoke crash-smoke planquality-smoke

build:
	$(GO) build ./...

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# perfbench/ is a separate Go module (the end-to-end benchmark), so the
# root ./... patterns never compile it; vetting it there catches an
# engine or xrel API change that would break the benchmark's build.
perfbench-build:
	cd perfbench && $(GO) vet ./...

# The custom invariant analyzers (rawsql, deweycmp, regexploop,
# errdrop, recoverguard, opstats, ctxflow, lockscope, sqltaint,
# hotalloc, goleak, syncerr, statflow, snapfreeze, guardedby,
# walorder, xvetignore); -novet because `make vet` already ran the
# standard passes. Results are cached per package under .xvetcache/
# (keyed on the xvet binary's own signature, so a rebuilt analyzer
# re-checks everything); pass -nocache to force a full re-check, or
# -timing for a per-analyzer wall-time summary.
xvet:
	$(GO) run ./cmd/xvet -novet ./...

# Static translation validation: every Table 1 pattern derivation —
# over the synthetic axis/shape matrix and over everything traced
# while translating the fig3 + XPathMark corpora — must be
# language-equivalent to a reference automaton built directly from
# the axis semantics (DESIGN.md section 6).
transcheck:
	$(GO) run ./cmd/xvet -transcheck

# Static plan verification: the fig3 + XPathMark corpora and a seeded
# random query matrix (2500 queries per workload, each compiled under
# both translators) are translated and compiled, and every compiled
# plan is certificate-checked against the logical form of its SQL
# statement; §4.5 path-filter omissions are re-justified independently
# (DESIGN.md section 10).
plancheck:
	$(GO) run ./cmd/xvet -plancheck

# Publication-protocol verification: the interprocedural analyzers
# (snapfreeze, guardedby, walorder) sweep the tree, the seeded-defect
# harness proves every protocol violation class is rejected with a
# call-path witness, and the golden call-graph dumps pin the commit
# protocol's graph shape (DESIGN.md sections 6 and 12).
protocheck:
	$(GO) run ./cmd/xvet -novet -only snapfreeze,guardedby,walorder ./...
	$(GO) test -count=1 -run 'TestProtocolMutations|TestSnapFreeze|TestWALOrder|TestGuardedBy|TestProtocolPackagesClean' ./internal/analysis/
	$(GO) test -count=1 ./internal/analysis/callgraph/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos arms the failpoints (engine/morsel-claim, engine/hash-build,
# engine/plancache-insert, engine/pattern-compile) and the budget
# matrix under -race: injected faults must unwind to typed errors with
# no goroutine leaks and no poisoned caches (DESIGN.md section 8).
chaos:
	$(GO) test -race -run 'TestChaos|TestBudget|TestRunContext|TestConcurrentBudgeted' ./internal/engine/ ./internal/failpoint/
	$(GO) test -race -run 'TestVerifyPlan|TestMutationsRejected' ./internal/plancheck/

# batch-smoke checks batch-size invariance: every query in the
# engine's parallel matrix and the Figure 3 corpus must return
# byte-identical results, operator statistics, and governor errors at
# every batch capacity (including the degenerate 1), and a fault
# injected at the engine/batch-flush failpoint must unwind to a typed
# error with no goroutine leaks (DESIGN.md section 11).
batch-smoke:
	$(GO) test -race -count=1 -run 'TestBatchSizeInvariance|TestGovernorBatchInvariance|TestChaosBatchFlush|TestBatchSizeOptionPlumbs' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestBatchSizeInvarianceOnFig3' ./internal/bench/

# crash-smoke is the kill-and-recover matrix: a persistent store is
# crashed at every durability failpoint (wal/append, wal/fsync,
# wal/checkpoint, engine/recovery-replay) plus at the file level (torn
# WAL tail, CRC bit flips), recovery is re-run, and the recovered
# database must answer the fig3 workload oracle-identically while
# concurrent readers only ever see whole-document snapshots — all
# under -race (DESIGN.md section 12).
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashAtEverySite|TestCrashDuring|TestDoubleReplay|TestCreateIndexRecovery|TestConcurrentWriter|TestWriteBatchMulti|TestConcurrentDDL' ./internal/engine/
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'TestCrashSmoke|TestConcurrentLoadAndFig3|TestMixedExperiment' ./internal/bench/

# fuzz-smoke gives each native fuzz target a short budget; regression
# inputs from past crashes live in each package's testdata/fuzz and
# also run under plain `go test`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzXPathParse -fuzztime=10s ./internal/xpath/
	$(GO) test -fuzz=FuzzDeweyDecode -fuzztime=10s ./internal/dewey/
	$(GO) test -fuzz=FuzzPathPattern -fuzztime=10s ./internal/pathre/
	$(GO) test -fuzz=FuzzPathDFA -fuzztime=10s ./internal/pathre/

# bench-smoke runs a tiny Figure 3 pass in both execution modes
# (serial, then morsel-parallel) with oracle verification on: a fast
# end-to-end check that every measured configuration still returns the
# native evaluator's node sets.
bench-smoke:
	$(GO) run ./cmd/xbench -experiment fig3 -scale 0.02 -reps 1 -budget 30s
	$(GO) run ./cmd/xbench -experiment fig3 -scale 0.02 -reps 1 -budget 30s -parallel

# explain-smoke runs EXPLAIN ANALYZE over the Figure 3 query set on
# both workloads, asserting that every operator reports runtime stats
# and that no schema-aware UNION branch joins more relations than the
# Edge-like translation's widest branch.
explain-smoke:
	$(GO) run ./cmd/xbench -experiment explain -scale 0.02 -reps 1

# planquality-smoke compares synopsis-costed plans against the
# pre-synopsis heuristic planner on the fig3 corpus: after adaptive
# settling every operator's cardinality q-error must be at most 2 and
# no query's intermediate-result work may regress past the slack
# bound, with oracle verification on (DESIGN.md section 13).
planquality-smoke:
	$(GO) run ./cmd/xbench -experiment planquality -scale 0.02 -reps 1
