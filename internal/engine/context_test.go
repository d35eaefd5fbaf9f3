package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlast"
)

// TestRunContextCancel checks that cancelling the statement context
// stops serial and parallel execution with ctx.Err(), leaking no
// goroutines, independently of any wall-clock Timeout.
func TestRunContextCancel(t *testing.T) {
	db := bigDB(t)
	// A non-equi self-join: enough work that cancellation always
	// lands mid-execution.
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{0, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		_, err := db.RunWithOptionsContext(ctx, st, ExecOptions{Parallelism: parallelism})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
		waitGoroutines(t, before)
		// The next statement must run normally.
		if _, err := db.RunWithOptionsContext(context.Background(), st, ExecOptions{Parallelism: parallelism}); err != nil {
			t.Fatalf("parallelism %d: post-cancel run: %v", parallelism, err)
		}
	}
}

// TestRunContextDeadline checks that a context deadline behaves like
// Timeout, surfacing context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	db := bigDB(t)
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = db.RunWithOptionsContext(ctx, st, ExecOptions{Parallelism: 8})
	// The cancellation check sees ctx.Err(); the wall-clock check may
	// win the race and report ErrTimeout (the ctx deadline is merged
	// into the execCtx deadline). Either typed error is correct.
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want context.DeadlineExceeded or ErrTimeout", err)
	}
}

// TestRunContextAlreadyCancelled checks that a context cancelled
// before execution starts fails the statement with context.Canceled
// (on plain runs and on EXPLAIN ANALYZE, which executes too) and that
// the next statement runs normally.
func TestRunContextAlreadyCancelled(t *testing.T) {
	db := bigDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{
		"SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val",
		"EXPLAIN ANALYZE SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val",
	} {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.RunWithOptionsContext(ctx, st, ExecOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", q, err)
		}
		if _, err := db.RunWithOptionsContext(context.Background(), st, ExecOptions{}); err != nil {
			t.Fatalf("%s: post-cancel run: %v", q, err)
		}
	}
}

// waitGoroutines waits for the goroutine count to return to the
// baseline, failing after 2s of sustained growth.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
