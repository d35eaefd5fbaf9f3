package engine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sqlast"
)

// bigDB builds a synthetic database whose driving tables span many
// morsels, so the parallel executor actually partitions work (the
// engine_test fixture is a single morsel and exercises the serial
// fallback instead). Generation is deterministic.
func bigDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	item, err := db.CreateTable("item",
		Column{"id", TInt}, Column{"par", TInt}, Column{"dewey_pos", TBytes},
		Column{"path_id", TInt}, Column{"text", TText}, Column{"val", TInt},
		Column{"score", TFloat})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := db.CreateTable("cat", Column{"id", TInt}, Column{"name", TText})
	if err != nil {
		t.Fatal(err)
	}
	const nItems = 4096
	const nCats = 64
	for i := 0; i < nCats; i++ {
		cat.MustInsert(NewInt(int64(i)), NewText(fmt.Sprintf("cat-%d", i%7)))
	}
	rnd := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int64(rnd % uint64(n))
	}
	for i := 0; i < nItems; i++ {
		dew := []byte{1, byte(next(16)), byte(next(16)), byte(next(16))}
		val := NewInt(next(100))
		if next(10) == 0 {
			val = Null
		}
		item.MustInsert(NewInt(int64(i)), NewInt(next(nItems)), NewBytes(dew),
			NewInt(1+next(8)), NewText(fmt.Sprintf("%d", next(1000))), val,
			NewFloat(float64(next(1000))/8))
	}
	for _, ix := range []struct {
		n    string
		cols []string
	}{
		{"item_pk", []string{"id"}},
		{"item_par", []string{"par"}},
		{"item_dp", []string{"dewey_pos", "path_id"}},
	} {
		if _, err := item.CreateIndex(ix.n, ix.cols...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.CreateIndex("cat_pk", "id"); err != nil {
		t.Fatal(err)
	}
	return db
}

// parallelQueries cover every access path, DISTINCT, COUNT(*),
// correlated EXISTS, UNION, dynamic patterns, and both sort paths
// (memcomparable keys, and the generic fallback via the float
// column).
var parallelQueries = []string{
	"SELECT i.id, i.text FROM item i WHERE i.val > 90 ORDER BY i.id",
	"SELECT i.id FROM item i WHERE i.dewey_pos BETWEEN X'0102' AND X'0104' ORDER BY i.id DESC",
	"SELECT DISTINCT i.path_id FROM item i ORDER BY i.path_id DESC",
	"SELECT DISTINCT i.text FROM item i ORDER BY i.text",
	"SELECT COUNT(*) FROM item i WHERE i.val < 10",
	"SELECT i.id FROM item i, cat c WHERE i.val = c.id AND c.name = 'cat-3' ORDER BY i.id",
	"SELECT i.id, j.id FROM item i, item j WHERE j.par = i.id AND i.val > 80 ORDER BY i.id, j.id",
	"SELECT i.id FROM item i WHERE EXISTS (SELECT NULL FROM item j WHERE j.par = i.id AND j.val > 50) ORDER BY i.id",
	"SELECT i.id FROM item i WHERE REGEXP_LIKE(i.text, '^1[0-9]*$') ORDER BY i.id",
	"SELECT i.id FROM item i ORDER BY i.score, i.id",
	"SELECT i.id FROM item i ORDER BY i.val, i.id",
	"SELECT i.id AS v FROM item i WHERE i.val = 3 UNION SELECT i.id AS v FROM item i WHERE i.val = 5 ORDER BY v",
}

// TestParallelMatchesSerial checks that the morsel executor returns
// byte-identical results (rows and order) to the serial executor.
func TestParallelMatchesSerial(t *testing.T) {
	db := bigDB(t)
	for _, q := range parallelQueries {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := db.RunWithOptions(st, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: serial: %v", q, err)
		}
		got, err := db.RunWithOptions(st, ExecOptions{Parallelism: 8})
		if err != nil {
			t.Fatalf("%s: parallel: %v", q, err)
		}
		if !equalResults(want, got) {
			t.Errorf("%s: parallel result differs from serial (%d vs %d rows)",
				q, len(got.Rows), len(want.Rows))
		}
	}
}

// TestParallelSmallTableFallsBack checks that sub-morsel inputs take
// the serial path and still produce correct results with parallelism
// requested.
func TestParallelSmallTableFallsBack(t *testing.T) {
	db := fixtureDB(t)
	for _, q := range []string{
		"SELECT F.id FROM F WHERE F.text = '2'",
		"SELECT DISTINCT F.par FROM F",
		"SELECT COUNT(*) FROM G",
	} {
		st, err := sqlast.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.RunWithOptions(st, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.RunWithOptions(st, ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(want, got) {
			t.Errorf("%s: result differs with Parallelism=4", q)
		}
	}
}

// TestParallelTimeout checks that a budget expiring while workers are
// draining morsels surfaces ErrTimeout, stops every worker, and leaks
// no goroutines.
func TestParallelTimeout(t *testing.T) {
	db := bigDB(t)
	before := runtime.NumGoroutine()
	// A non-equi self-join over 4096x4096 pairs: far more work than a
	// 2ms budget allows, so the deadline fires mid-drain.
	st, err := sqlast.Parse("SELECT COUNT(*) FROM item i, item j WHERE i.val < j.val")
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.RunWithOptions(st, ExecOptions{Parallelism: 8, Timeout: 2 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// collectParallel joins its WaitGroup before returning, so worker
	// goroutines must already be gone (allow the runtime a moment to
	// retire exiting goroutines).
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
