package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// The chaos suite injects faults (budget overruns, failpoint errors,
// failpoint panics) into every access path of the executor, at every
// entry point, and asserts clean unwinding: the fault surfaces as a
// typed error, serial and parallel execution agree on the outcome
// class, no goroutines leak, no caches are poisoned, and the DB
// stays usable for the next statement. Run under -race via `make
// chaos`.

var errChaosHash = errors.New("chaos: injected hash-build failure")

// outcomeClass buckets an execution result for serial/parallel
// agreement checks.
func outcomeClass(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrMemoryBudget):
		return "mem-budget"
	case errors.Is(err, ErrRowBudget):
		return "row-budget"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, errChaosHash):
		return "hash-error"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	default:
		return "unexpected:" + err.Error()
	}
}

// waitNoGoroutineGrowth gives the runtime a moment to retire exiting
// goroutines, then asserts the count returned to the baseline.
func waitNoGoroutineGrowth(t *testing.T, before int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%s: goroutines leaked: %d before, %d after", label, before, after)
	}
}

// TestChaosMatrix runs every access-path query under every fault
// kind, serial and Parallelism=8, asserting that both modes agree on
// the typed outcome and that the database answers the unfaulted
// query correctly afterwards.
func TestChaosMatrix(t *testing.T) {
	db := bigDB(t)
	stmts := make([]sqlast.Statement, len(parallelQueries))
	baseline := make([]*Result, len(parallelQueries))
	for i, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmts[i] = st
		// Baseline run: caches the plan and builds hash sides, so the
		// faulted runs below exercise the executor, not the planner.
		res, err := db.RunWithOptions(st, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: baseline: %v", q, err)
		}
		baseline[i] = res
	}
	faults := []struct {
		name string
		opts ExecOptions
		arm  func() error
	}{
		{name: "mem-budget", opts: ExecOptions{MaxMemoryBytes: 1}},
		{name: "row-budget", opts: ExecOptions{MaxRows: 1}},
		{name: "hash-build-error", arm: func() error {
			return failpoint.Enable("engine/hash-build", failpoint.Return(errChaosHash))
		}},
		{name: "hash-build-panic", arm: func() error {
			return failpoint.Enable("engine/hash-build", failpoint.Panic("chaos"))
		}},
	}
	defer failpoint.Reset()
	for _, f := range faults {
		for i, q := range parallelQueries {
			before := runtime.NumGoroutine()
			if f.arm != nil {
				if err := f.arm(); err != nil {
					t.Fatal(err)
				}
			}
			_, serialErr := db.RunWithOptions(stmts[i], f.opts)
			popts := f.opts
			popts.Parallelism = 8
			_, parErr := db.RunWithOptions(stmts[i], popts)
			failpoint.Reset()

			sc, pc := outcomeClass(t, serialErr), outcomeClass(t, parErr)
			if strings.HasPrefix(sc, "unexpected") || strings.HasPrefix(pc, "unexpected") {
				t.Errorf("%s / %s: untyped error (serial %v, parallel %v)", f.name, q, serialErr, parErr)
			}
			if sc != pc {
				t.Errorf("%s / %s: serial outcome %q, parallel outcome %q", f.name, q, sc, pc)
			}
			waitNoGoroutineGrowth(t, before, f.name+" / "+q)

			// The statement after the fault must see an intact engine.
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

// TestChaosMorselClaimPanic injects a panic at the morsel-claim site:
// the worker's own panic boundary must convert it into *InternalError
// carrying the SQL text, with no goroutine leaks and no crash.
func TestChaosMorselClaimPanic(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Panic("worker down")); err != nil {
		t.Fatal(err)
	}
	_, err = db.RunWithOptions(st, ExecOptions{Parallelism: 8})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v is not *InternalError", err)
	}
	if !strings.Contains(ie.SQL, "SELECT") || !strings.Contains(ie.SQL, "item") {
		t.Errorf("InternalError.SQL = %q, want the offending statement", ie.SQL)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError.Stack is empty")
	}
	failpoint.Reset()
	waitNoGoroutineGrowth(t, before, "morsel-claim panic")
	// Serial execution never claims morsels; it must be unaffected
	// even while the failpoint is armed.
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Panic("worker down")); err != nil {
		t.Fatal(err)
	}
	res, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatalf("serial run with morsel-claim armed: %v", err)
	}
	failpoint.Reset()
	if !equalResults(res, want) {
		t.Error("serial result changed under morsel-claim failpoint")
	}
	// And the engine serves the same query cleanly afterwards.
	res, err = db.RunWithOptions(st, ExecOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(res, want) {
		t.Error("post-panic parallel result differs")
	}
}

// TestChaosMorselClaimError checks the error-return path at the same
// site: one worker fails its claim, all workers drain, the statement
// reports the injected error.
func TestChaosMorselClaimError(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	st, err := sqlast.Parse("SELECT i.id FROM item i ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	boom := errors.New("claim refused")
	// Fire on the third claim so some morsels complete first.
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Return(boom).After(2)); err != nil {
		t.Fatal(err)
	}
	_, err = db.RunWithOptions(st, ExecOptions{Parallelism: 8})
	failpoint.Reset()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected %v", err, boom)
	}
	waitNoGoroutineGrowth(t, before, "morsel-claim error")
}

// TestChaosPatternCompile injects a failure into the sanctioned
// pattern-compilation site and checks the error surfaces without
// poisoning the shared pattern cache.
func TestChaosPatternCompile(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	// A pattern no other test compiles, so the cache misses and the
	// failpoint actually fires.
	const q = "SELECT i.id FROM item i WHERE REGEXP_LIKE(i.text, '^7[0-4]?$') ORDER BY i.id"
	if err := failpoint.Enable("engine/pattern-compile", failpoint.Return(nil)); err != nil {
		t.Fatal(err)
	}
	_, err := runSQL(db, q)
	failpoint.Reset()
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The failed compile must not have cached anything for the
	// pattern; with the fault cleared the query runs.
	res, err := runSQL(db, q)
	if err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("post-fault pattern query returned no rows")
	}
}

// TestChaosPlanCacheInsert fails the plan-cache insert: the
// statement errors, nothing is cached, and the next run re-plans
// and caches normally.
func TestChaosPlanCacheInsert(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id FROM item i WHERE i.val = 77 ORDER BY i.id"
	sizeBefore := db.PlanCacheSize()
	if err := failpoint.Enable("engine/plancache-insert", failpoint.Return(nil)); err != nil {
		t.Fatal(err)
	}
	_, err := runSQL(db, q)
	failpoint.Reset()
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := db.PlanCacheSize(); got != sizeBefore {
		t.Errorf("plan cache grew across failed insert: %d -> %d", sizeBefore, got)
	}
	if _, err := runSQL(db, q); err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
	if got := db.PlanCacheSize(); got != sizeBefore+1 {
		t.Errorf("plan cache size = %d after clean run, want %d", got, sizeBefore+1)
	}
}

// TestChaosPlanShapePanic injects a panic into planning under
// PlanShape: like every other compile entry point it must return
// *InternalError instead of propagating the panic, and the DB must
// answer the same query afterwards.
func TestChaosPlanShapePanic(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	st, err := sqlast.Parse("SELECT i.id FROM item i WHERE i.val = 78 ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("engine/plancache-insert", failpoint.Panic("planner down")); err != nil {
		t.Fatal(err)
	}
	_, err = db.PlanShape(st)
	failpoint.Reset()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("PlanShape err = %v, want *InternalError", err)
	}
	if _, err := db.PlanShape(st); err != nil {
		t.Fatalf("post-panic PlanShape: %v", err)
	}
	res, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatalf("post-panic run: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("post-panic run returned no rows")
	}
}

// TestChaosVerifyPlanEveryEntryPoint checks that ExecOptions.VerifyPlan
// is honoured by every entry point that takes ExecOptions, for every
// statement kind that plans: an accepting verifier is consulted and
// the statement succeeds, a rejecting verifier fails it.
func TestChaosVerifyPlanEveryEntryPoint(t *testing.T) {
	db := fixtureDB(t)
	defer SetPlanVerifier(nil)
	const q = "SELECT F.id FROM F ORDER BY F.id"
	parse := func(src string) sqlast.Statement {
		st, err := sqlast.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	verify := ExecOptions{VerifyPlan: true}
	entries := []struct {
		name string
		run  func() error
	}{
		{"RunWithOptions", func() error {
			_, err := db.RunWithOptions(parse(q), verify)
			return err
		}},
		{"RunWithOptionsContext", func() error {
			_, err := db.RunWithOptionsContext(context.Background(), parse(q), verify)
			return err
		}},
		{"RunWithOptions EXPLAIN", func() error {
			_, err := db.RunWithOptions(parse("EXPLAIN "+q), verify)
			return err
		}},
		{"RunWithOptions EXPLAIN ANALYZE", func() error {
			_, err := db.RunWithOptions(parse("EXPLAIN ANALYZE "+q), verify)
			return err
		}},
		{"ExplainAnalyzeWithOptions", func() error {
			_, err := db.ExplainAnalyzeWithOptions(parse(q), verify)
			return err
		}},
		{"AnalyzeReport", func() error {
			_, _, err := db.AnalyzeReport(parse(q), verify)
			return err
		}},
	}
	errReject := errors.New("chaos: plan rejected")
	for _, e := range entries {
		calls := 0
		SetPlanVerifier(func(PlanTrace) error { calls++; return nil })
		if err := e.run(); err != nil {
			t.Errorf("%s: accepting verifier: %v", e.name, err)
		}
		if calls == 0 {
			t.Errorf("%s: VerifyPlan set but the verifier was not consulted", e.name)
		}
		SetPlanVerifier(func(PlanTrace) error { return errReject })
		if err := e.run(); !errors.Is(err, errReject) {
			t.Errorf("%s: rejecting verifier: err = %v, want the rejection", e.name, err)
		}
	}
}

// TestChaosSleepWidensTimeout uses a Sleep failpoint at the morsel
// claim to guarantee the wall-clock budget expires mid-drain.
func TestChaosSleepWidensTimeout(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	st, err := sqlast.Parse("SELECT i.id FROM item i ORDER BY i.id")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := failpoint.Enable("engine/morsel-claim", failpoint.Sleep(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = db.RunWithOptions(st, ExecOptions{Parallelism: 8, Timeout: time.Millisecond})
	failpoint.Reset()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	waitNoGoroutineGrowth(t, before, "sleep timeout")
}

// TestChaosDeadlineObservedAfterHashBuild pins the satellite fix: a
// deadline that expires during a serial hash-join build must be
// observed between the build and probe phases, not 1024 probe rows
// later. The build is forced (the cached side is dropped) and
// stalled past the deadline with a Sleep failpoint.
func TestChaosDeadlineObservedAfterHashBuild(t *testing.T) {
	db := bigDB(t)
	defer failpoint.Reset()
	const q = "SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	// Plan (and plan-time hash builds) happen here.
	if _, err := db.RunWithOptions(st, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Drop the cached build sides so execution must rebuild, and
	// stall that rebuild past the deadline.
	for _, name := range db.TableNames() {
		st := db.Table(name).state()
		st.hashMu.Lock()
		st.hashIdx = map[int]map[string][]int64{}
		st.hashMax = map[int]int{}
		st.hashMu.Unlock()
	}
	if err := failpoint.Enable("engine/hash-build", failpoint.Sleep(15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = db.RunWithOptions(st, ExecOptions{Timeout: time.Millisecond})
	failpoint.Reset()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout observed at the build/probe boundary", err)
	}
	// The engine must still answer the query once the stall clears.
	if _, err := db.RunWithOptions(st, ExecOptions{}); err != nil {
		t.Fatalf("post-fault run: %v", err)
	}
}

// TestBudgetErrorsKeepDBUsable exhausts both budgets back to back
// and verifies the very next unlimited statement sees full, correct
// results — no partially-visible state, no stuck accounting.
func TestBudgetErrorsKeepDBUsable(t *testing.T) {
	db := bigDB(t)
	const q = "SELECT i.id, i.text FROM item i ORDER BY i.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 8} {
		if _, err := db.RunWithOptions(st, ExecOptions{Parallelism: parallelism, MaxMemoryBytes: 64}); !errors.Is(err, ErrMemoryBudget) {
			t.Fatalf("parallelism %d: err = %v, want ErrMemoryBudget", parallelism, err)
		}
		if _, err := db.RunWithOptions(st, ExecOptions{Parallelism: parallelism, MaxRows: 3}); !errors.Is(err, ErrRowBudget) {
			t.Fatalf("parallelism %d: err = %v, want ErrRowBudget", parallelism, err)
		}
		res, err := db.RunWithOptions(st, ExecOptions{Parallelism: parallelism})
		if err != nil {
			t.Fatalf("parallelism %d: unlimited rerun: %v", parallelism, err)
		}
		if !equalResults(res, want) {
			t.Errorf("parallelism %d: post-budget result differs", parallelism)
		}
	}
}
