package engine

import (
	"fmt"
	"testing"

	"repro/internal/dewey"
	"repro/internal/sqlast"
)

// statsDelta runs f and returns the plan-cache hit/miss deltas it
// produced.
func statsDelta(db *DB, f func()) (hits, misses uint64) {
	h0, m0 := db.PlanCacheStats()
	f()
	h1, m1 := db.PlanCacheStats()
	return h1 - h0, m1 - m0
}

func TestPlanCacheHitOnRepeat(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT F.id FROM F WHERE F.text = '2' ORDER BY F.id"
	hits, misses := statsDelta(db, func() {
		mustRun(t, db, q)
		mustRun(t, db, q)
		mustRun(t, db, q)
	})
	if misses != 1 || hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if db.PlanCacheSize() != 1 {
		t.Fatalf("PlanCacheSize = %d, want 1", db.PlanCacheSize())
	}
	// Semantically identical but differently written SQL normalizes to
	// the same rendered key.
	hits, misses = statsDelta(db, func() {
		mustRun(t, db, "select F.id from F where F.text = '2' order by F.id")
	})
	if hits != 1 || misses != 0 {
		t.Errorf("normalized rewrite: hits=%d misses=%d, want 1/0", hits, misses)
	}
}

func TestPlanCacheUnionCached(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT F.id AS v FROM F UNION SELECT G.id AS v FROM G ORDER BY v"
	var want, got *Result
	hits, misses := statsDelta(db, func() {
		want = mustRun(t, db, q)
		got = mustRun(t, db, q)
	})
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if !equalResults(want, got) {
		t.Fatal("cached union plan returned different rows")
	}
}

// TestPlanCacheInvalidatedByInsert checks that mutating a touched
// table forces a re-plan and that the re-planned query sees the new
// row.
func TestPlanCacheInvalidatedByInsert(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT COUNT(*) FROM F"
	n := mustRun(t, db, q).Rows[0][0].I
	db.Table("F").MustInsert(NewInt(100), NewInt(6), NewBytes(dewey.New(1, 1, 2, 1, 9)), NewInt(6), NewText("x"))
	var got int64
	hits, misses := statsDelta(db, func() {
		got = mustRun(t, db, q).Rows[0][0].I
	})
	if got != n+1 {
		t.Fatalf("count after insert = %d, want %d", got, n+1)
	}
	if hits != 0 || misses != 1 {
		t.Errorf("post-insert lookup: hits=%d misses=%d, want 0/1", hits, misses)
	}
	// Unrelated tables keep their cached plans.
	qg := "SELECT COUNT(*) FROM G"
	mustRun(t, db, qg)
	db.Table("F").MustInsert(NewInt(101), NewInt(6), NewBytes(dewey.New(1, 1, 2, 1, 10)), NewInt(6), NewText("y"))
	hits, misses = statsDelta(db, func() { mustRun(t, db, qg) })
	if hits != 1 || misses != 0 {
		t.Errorf("unrelated table after insert: hits=%d misses=%d, want 1/0", hits, misses)
	}
}

// TestPlanCacheInvalidatedByCreateIndex checks that DDL on a touched
// table also invalidates (a new index can change the chosen plan).
func TestPlanCacheInvalidatedByCreateIndex(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT F.id FROM F WHERE F.text = '2'"
	mustRun(t, db, q)
	if _, err := db.Table("F").CreateIndex("F_text", "text"); err != nil {
		t.Fatal(err)
	}
	hits, misses := statsDelta(db, func() { mustRun(t, db, q) })
	if hits != 0 || misses != 1 {
		t.Errorf("post-DDL lookup: hits=%d misses=%d, want 0/1", hits, misses)
	}
}

// TestPlanCacheSubqueryTablesTracked checks that tables referenced
// only inside a correlated subquery also invalidate the outer plan.
func TestPlanCacheSubqueryTablesTracked(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT B.id FROM B WHERE EXISTS (SELECT NULL FROM G WHERE G.par = B.id AND G.id = 200) ORDER BY B.id"
	if n := len(mustRun(t, db, q).Rows); n != 0 {
		t.Fatalf("rows before insert = %d, want 0", n)
	}
	// The insert touches G, which appears only inside the subquery:
	// the cached outer plan must still be invalidated.
	db.Table("G").MustInsert(NewInt(200), NewInt(10), NewBytes(dewey.New(1, 2, 9)), NewInt(7))
	if n := len(mustRun(t, db, q).Rows); n != 1 {
		t.Fatalf("rows after subquery-table insert = %d, want 1", n)
	}
}

func TestPlanCacheLRUBound(t *testing.T) {
	db := fixtureDB(t)
	for i := 0; i < planCacheCap+50; i++ {
		mustRun(t, db, fmt.Sprintf("SELECT F.id FROM F WHERE F.id = %d", i))
	}
	if n := db.PlanCacheSize(); n != planCacheCap {
		t.Fatalf("PlanCacheSize = %d, want cap %d", n, planCacheCap)
	}
	// The most recent query must still be cached...
	hits, misses := statsDelta(db, func() {
		mustRun(t, db, fmt.Sprintf("SELECT F.id FROM F WHERE F.id = %d", planCacheCap+49))
	})
	if hits != 1 || misses != 0 {
		t.Errorf("MRU entry: hits=%d misses=%d, want 1/0", hits, misses)
	}
	// ...and the oldest evicted.
	hits, misses = statsDelta(db, func() {
		mustRun(t, db, "SELECT F.id FROM F WHERE F.id = 0")
	})
	if hits != 0 || misses != 1 {
		t.Errorf("evicted entry: hits=%d misses=%d, want 0/1", hits, misses)
	}
}

// TestReplanAfterMutation checks that a statement run repeatedly is
// served from its cached plan, under different execution options, and
// stays correct once a mutation of its table invalidates that plan.
func TestReplanAfterMutation(t *testing.T) {
	db := fixtureDB(t)
	st, err := sqlast.Parse("SELECT F.id FROM F ORDER BY F.id")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	hits, misses := statsDelta(db, func() {
		got, err = db.RunWithOptions(st, ExecOptions{Parallelism: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 || misses != 0 {
		t.Errorf("re-run: hits=%d misses=%d, want 1/0", hits, misses)
	}
	if !equalResults(want, got) {
		t.Fatal("re-run returned different rows")
	}
	db.Table("F").MustInsert(NewInt(300), NewInt(6), NewBytes(dewey.New(1, 1, 2, 1, 11)), NewInt(6), NewText("z"))
	var res *Result
	hits, misses = statsDelta(db, func() {
		res, err = db.RunWithOptions(st, ExecOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || misses != 1 {
		t.Errorf("run after insert: hits=%d misses=%d, want 0/1 (re-plan)", hits, misses)
	}
	if len(res.Rows) != len(want.Rows)+1 {
		t.Fatalf("rows after insert = %d, want %d", len(res.Rows), len(want.Rows)+1)
	}
}

// TestPlanCacheStaleReinsert is the regression test for the
// eviction/in-flight race: a plan compiled before a table mutation
// (e.g. one whose cache entry was evicted while its execution was
// still in flight) must not be re-inserted with stale table
// versions, where it would evict a good entry and serve only to be
// thrown away by the next lookup's staleness check.
func TestPlanCacheStaleReinsert(t *testing.T) {
	db := fixtureDB(t)
	q := "SELECT F.id FROM F WHERE F.text = '2' ORDER BY F.id"
	st, err := sqlast.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	key := sqlast.Render(st)
	// Compile (as an in-flight execution would have) before mutating.
	cs, err := compileStmt(db, st)
	if err != nil {
		t.Fatal(err)
	}
	// The mutation bumps F's version: cs is now stale.
	f := db.Table("F")
	if _, err := f.Insert([]Value{NewInt(999), NewInt(6), NewBytes(dewey.New(1, 1, 2, 1, 3)), NewInt(6), NewText("2")}); err != nil {
		t.Fatal(err)
	}
	if cs.fresh(db.loadSnap()) {
		t.Fatal("test setup: plan still fresh after Insert")
	}
	db.plans.put(key, cs, db.loadSnap())
	if got := db.plans.get(key, db.loadSnap()); got != nil {
		t.Fatal("stale plan was re-inserted and served")
	}
	if n := db.PlanCacheSize(); n != 0 {
		t.Fatalf("PlanCacheSize = %d after stale put, want 0", n)
	}
	// A fresh run re-plans, caches, and sees the inserted row.
	res := mustRun(t, db, q)
	found := false
	for _, r := range res.Rows {
		if r[0].I == 999 {
			found = true
		}
	}
	if !found {
		t.Error("re-planned query does not see the post-mutation row")
	}
	if n := db.PlanCacheSize(); n != 1 {
		t.Errorf("PlanCacheSize = %d after clean run, want 1", n)
	}
}
