package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dewey"
)

// TestConcurrentWriterSnapshotIsolation is the regression test for
// the retired "externally serialized" contract: one writer commits
// batches while readers query without any coordination. Every reader
// must observe an atomic prefix of the commit history — a COUNT that
// is an exact multiple of the batch size, never a torn batch — and
// the lazy hash-index build (the old Table.hashMu race) must stay
// safe while the writer publishes new states. Run under -race in CI.
func TestConcurrentWriterSnapshotIsolation(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable("T", Column{"id", TInt}, Column{"k", TInt}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("T_pk", "id"); err != nil {
		t.Fatal(err)
	}

	const (
		batchRows = 7
		batches   = 120
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Writer: commit batchRows rows per InsertBatch. Each batch is one
	// snapshot publish, so readers may see 0, 7, 14, ... rows — never
	// anything in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		id := int64(0)
		for b := 0; b < batches; b++ {
			rows := make([][]Value, batchRows)
			for i := range rows {
				id++
				rows[i] = []Value{NewInt(id), NewInt(id % 10), NewText(fmt.Sprint(id))}
			}
			if _, err := tb.InsertBatch(rows); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := int64(-1)
			for !stop.Load() {
				res, err := runSQL(db, "SELECT COUNT(*) FROM T")
				if err != nil {
					errs <- err
					return
				}
				n := res.Rows[0][0].I
				if n%batchRows != 0 {
					errs <- fmt.Errorf("reader saw %d rows: torn batch (batch size %d)", n, batchRows)
					return
				}
				if n < last {
					errs <- fmt.Errorf("reader saw count go backwards: %d after %d", n, last)
					return
				}
				last = n
				// Probe via the lazy hash path too (the old hashMu race):
				// an equality lookup on the unindexed column k forces a
				// hash build against whatever state this statement pinned.
				if r%2 == 0 {
					if _, err := runSQL(db, "SELECT COUNT(*) FROM T WHERE T.k = 3"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := runSQL(db, "SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != batchRows*batches {
		t.Fatalf("final count = %d, want %d", got, batchRows*batches)
	}
}

// TestWriteBatchMultiTableAtomicity checks cross-table snapshot
// consistency: a WriteBatch commits matching rows to A and B in one
// publish, so no statement may ever see an A row without its B
// counterpart (the anti-join below must always be empty). Run under
// -race in CI.
func TestWriteBatchMultiTableAtomicity(t *testing.T) {
	db := NewDB()
	a, err := db.CreateTable("A", Column{"id", TInt})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("B", Column{"id", TInt})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := int64(1); i <= 400; i++ {
			batch := db.NewWriteBatch()
			if err := batch.Insert(a, []Value{NewInt(i)}); err != nil {
				errs <- err
				return
			}
			if err := batch.Insert(b, []Value{NewInt(i)}); err != nil {
				errs <- err
				return
			}
			if err := batch.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()

	const q = "SELECT COUNT(*) FROM A WHERE NOT EXISTS (SELECT NULL FROM B WHERE B.id = A.id)"
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := runSQL(db, q)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Rows[0][0].I; n != 0 {
					errs <- fmt.Errorf("statement saw %d A rows without B counterparts: cross-table tear", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentDDLAndReaders races CREATE INDEX against readers whose
// plans were compiled before the index existed: cached plans keep
// running against their pinned state, and re-planned statements may
// adopt the new index, but results never change. Run under -race.
func TestConcurrentDDLAndReaders(t *testing.T) {
	db := NewDB()
	tb, err := db.CreateTable("T", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 500)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i)), NewBytes(dewey.New(1, i+1))}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	want, err := runSQL(db, "SELECT COUNT(*) FROM T WHERE T.id = 250")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 12; i++ {
			if _, err := tb.CreateIndex(fmt.Sprintf("T_ix%d", i), "id"); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := runSQL(db, "SELECT COUNT(*) FROM T WHERE T.id = 250")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != want.Rows[0][0].I {
					errs <- fmt.Errorf("result changed under concurrent DDL: %d", res.Rows[0][0].I)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
