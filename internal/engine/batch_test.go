package engine

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// The batch-invariance suite pins the contract of the batched
// executor: BatchSize is a pure performance knob. Results, operator
// counters, EXPLAIN ANALYZE output, and governor errors are identical
// at every batch size — including BatchSize=1, which degenerates to
// the old row-at-a-time execution — serial and parallel. Run under
// -race via `make batch-smoke`.

// batchSizes is the invariance matrix's BatchSize axis: degenerate,
// tiny, prime (so batch boundaries never align with morsel or index
// posting-list boundaries), sub-default, and the default.
var batchSizes = []int{1, 2, 7, 256, 1024}

// timeTokens matches the wall-clock annotations of EXPLAIN ANALYZE
// output, the only part of the rendering allowed to vary across runs.
var timeTokens = regexp.MustCompile(`time=[^ \n]+`)

func normalizeAnalyze(s string) string {
	return timeTokens.ReplaceAllString(s, "time=?")
}

// statsNoTime renders every OpStats counter except wall time.
func statsNoTime(s *OpStats) string {
	return fmt.Sprintf("loops=%d in=%d out=%d probes=%d pattern-hits=%d mem=%dB",
		s.loops, s.rowsIn, s.rowsOut, s.probes, s.patternHits, s.bytes)
}

// diffFrames returns a description of the first counter difference
// between two operator-stats frames, ignoring wall time ("" if none).
func diffFrames(got, want opFrame) string {
	if len(got) != len(want) {
		return fmt.Sprintf("frame size %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := statsNoTime(&got[i]), statsNoTime(&want[i])
		if g != w {
			return fmt.Sprintf("op %d: %s, want %s", i, g, w)
		}
	}
	return ""
}

// TestBatchSizeInvariance runs every access-path query at every batch
// size, serial and Parallelism=8, and asserts results, per-operator
// counters, and (normalized) EXPLAIN ANALYZE output all match the
// BatchSize=1024 reference for the same parallelism.
func TestBatchSizeInvariance(t *testing.T) {
	db := bigDB(t)
	for _, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		// Warm-up: caches the plan, builds hash-join sides, and fills
		// the pattern cache, so every measured run below does the same
		// work and the frames are comparable.
		if _, err := db.RunWithOptions(st, ExecOptions{}); err != nil {
			t.Fatalf("%s: warm-up: %v", q, err)
		}
		cs, err := db.compiledFor(st, sqlast.Render(st))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, par := range []int{0, 8} {
			ref := ExecOptions{BatchSize: DefaultBatchSize, Parallelism: par}
			refRes, refFrame, err := db.runCompiledFrame(nil, cs, ref, q, false)
			if err != nil {
				t.Fatalf("%s par=%d: reference run: %v", q, par, err)
			}
			refPlan, err := db.ExplainAnalyzeWithOptions(st, ref)
			if err != nil {
				t.Fatalf("%s par=%d: reference explain: %v", q, par, err)
			}
			refPlan = normalizeAnalyze(refPlan)
			for _, bs := range batchSizes {
				opts := ExecOptions{BatchSize: bs, Parallelism: par}
				res, frame, err := db.runCompiledFrame(nil, cs, opts, q, false)
				if err != nil {
					t.Fatalf("%s bs=%d par=%d: %v", q, bs, par, err)
				}
				if !equalResults(res, refRes) {
					t.Errorf("%s bs=%d par=%d: result differs from BatchSize=%d",
						q, bs, par, DefaultBatchSize)
				}
				if d := diffFrames(frame, refFrame); d != "" {
					t.Errorf("%s bs=%d par=%d: operator stats differ: %s", q, bs, par, d)
				}
				plan, err := db.ExplainAnalyzeWithOptions(st, opts)
				if err != nil {
					t.Fatalf("%s bs=%d par=%d: explain: %v", q, bs, par, err)
				}
				if got := normalizeAnalyze(plan); got != refPlan {
					t.Errorf("%s bs=%d par=%d: EXPLAIN ANALYZE differs:\n--- got ---\n%s--- want ---\n%s",
						q, bs, par, got, refPlan)
				}
			}
		}
	}
}

// TestGovernorBatchInvariance pins the exact-charging rule: with a
// budget set, ErrRowBudget and ErrMemoryBudget fire at the same
// logical row at every batch size. The error strings embed the counts
// observed at the failing charge, so string equality proves the
// trigger row, not just the error class.
func TestGovernorBatchInvariance(t *testing.T) {
	db := bigDB(t)
	const q = "SELECT i.id, i.text FROM item i ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunWithOptions(st, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	limits := []struct {
		name   string
		opts   ExecOptions
		target error
	}{
		{"row-budget", ExecOptions{MaxRows: 100}, ErrRowBudget},
		{"mem-budget", ExecOptions{MaxMemoryBytes: 4096}, ErrMemoryBudget},
	}
	for _, lim := range limits {
		want := ""
		for _, bs := range []int{1, 7, 1024} {
			opts := lim.opts
			opts.BatchSize = bs
			_, err := db.RunWithOptions(st, opts)
			if !errors.Is(err, lim.target) {
				t.Fatalf("%s bs=%d: err = %v, want %v", lim.name, bs, err, lim.target)
			}
			if want == "" {
				want = err.Error()
				continue
			}
			if got := err.Error(); got != want {
				t.Errorf("%s bs=%d: error %q, want %q (same logical row at every batch size)",
					lim.name, bs, got, want)
			}
		}
	}
}

// TestChaosBatchFlush injects faults at the batch-flush site — the
// seam every enumerated batch crosses between the access path and the
// filter pipeline — and asserts clean unwinding: the fault surfaces
// as the injected (or typed) error, no goroutines leak, and the next
// statement sees an intact engine.
func TestChaosBatchFlush(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	errFlush := errors.New("chaos: injected batch-flush failure")
	stmts := make([]sqlast.Statement, len(parallelQueries))
	baseline := make([]*Result, len(parallelQueries))
	for i, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmts[i] = st
		res, err := db.RunWithOptions(st, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: baseline: %v", q, err)
		}
		baseline[i] = res
	}
	faults := []struct {
		name string
		arm  func() error
		want func(error) bool
	}{
		{name: "error", want: func(err error) bool { return errors.Is(err, errFlush) },
			arm: func() error {
				return failpoint.Enable("engine/batch-flush", failpoint.Return(errFlush))
			}},
		{name: "panic", want: func(err error) bool { return errors.Is(err, ErrInternal) },
			arm: func() error {
				return failpoint.Enable("engine/batch-flush", failpoint.Panic("chaos"))
			}},
	}
	for _, f := range faults {
		for i, q := range parallelQueries {
			before := runtime.NumGoroutine()
			if err := f.arm(); err != nil {
				t.Fatal(err)
			}
			// Serial execution flushes every batch through the faulted
			// site; a non-prime batch size checks mid-enumeration flushes
			// too, not just the tail flush.
			_, serialErr := db.RunWithOptions(stmts[i], ExecOptions{BatchSize: 7})
			if !f.want(serialErr) {
				t.Errorf("%s / %s: serial err = %v", f.name, q, serialErr)
			}
			// Parallel plans route driving-step batches around the flush
			// site (the ids are materialized before fan-out), so a
			// single-step plan may legitimately complete; anything else
			// must be the injected fault, never an untyped escape.
			_, parErr := db.RunWithOptions(stmts[i], ExecOptions{BatchSize: 7, Parallelism: 8})
			if parErr != nil && !f.want(parErr) {
				t.Errorf("%s / %s: parallel err = %v", f.name, q, parErr)
			}
			failpoint.Reset()
			waitNoGoroutineGrowth(t, before, f.name+" / "+q)

			res, err := db.RunWithOptions(stmts[i], ExecOptions{Parallelism: 4})
			if err != nil {
				t.Fatalf("%s / %s: DB unusable after fault: %v", f.name, q, err)
			}
			if !equalResults(res, baseline[i]) {
				t.Errorf("%s / %s: post-fault result differs from baseline", f.name, q)
			}
		}
	}
}

// TestBatchSizeOptionPlumbs spot-checks the option boundary:
// non-positive batch sizes fall back to the default instead of
// wedging the executor.
func TestBatchSizeOptionPlumbs(t *testing.T) {
	db := bigDB(t)
	st, err := sqlast.Parse("SELECT i.id FROM item i WHERE i.val > 90 ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{-1, 0, 1} {
		res, err := db.RunWithOptions(st, ExecOptions{BatchSize: bs})
		if err != nil {
			t.Fatalf("BatchSize=%d: %v", bs, err)
		}
		if !equalResults(res, want) {
			t.Errorf("BatchSize=%d: result differs", bs)
		}
	}
	if !strings.Contains(fmt.Sprint(DefaultBatchSize), "1024") {
		t.Fatalf("DefaultBatchSize = %d, want 1024", DefaultBatchSize)
	}
}
