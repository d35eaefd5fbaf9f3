package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dewey"
	"repro/internal/sqlast"
)

// buildPair creates two databases with identical random tree data:
// one fully indexed, one without any index. Every query must return
// identical results on both — access paths must never change
// semantics.
func buildPair(t testing.TB, seed int64, nodes int) (indexed, bare *DB) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	indexed, bare = NewDB(), NewDB()
	mk := func(db *DB, withIndexes bool) *Table {
		tb, err := db.CreateTable("n",
			Column{"id", TInt}, Column{"par", TInt},
			Column{"dewey_pos", TBytes}, Column{"tag", TText}, Column{"val", TInt})
		if err != nil {
			t.Fatal(err)
		}
		if withIndexes {
			for _, ix := range []struct {
				name string
				cols []string
			}{{"n_pk", []string{"id"}}, {"n_par", []string{"par"}}, {"n_dp", []string{"dewey_pos"}}} {
				if _, err := tb.CreateIndex(ix.name, ix.cols...); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tb
	}
	t1 := mk(indexed, true)
	t2 := mk(bare, false)
	// Random forest of depth <= 4.
	type row struct {
		id, par int64
		pos     dewey.Pos
	}
	var rows []row
	var build func(parent *row, depth int)
	id := int64(0)
	build = func(parent *row, depth int) {
		if len(rows) >= nodes || depth > 4 {
			return
		}
		id++
		var pos dewey.Pos
		var parID int64
		if parent == nil {
			pos = dewey.New(int(id))
		} else {
			pos = parent.pos.Child(len(rows) % 7)
			parID = parent.id
		}
		rw := row{id: id, par: parID, pos: pos}
		rows = append(rows, rw)
		for i := 0; i < r.Intn(4); i++ {
			build(&rows[len(rows)-1], depth+1)
		}
	}
	for len(rows) < nodes {
		build(nil, 0)
	}
	tags := []string{"a", "b", "c"}
	for _, rw := range rows {
		par := NewInt(rw.par)
		if rw.par == 0 {
			par = Null
		}
		vals := []Value{NewInt(rw.id), par, NewBytes(rw.pos), NewText(tags[int(rw.id)%3]), NewInt(rw.id % 10)}
		t1.MustInsert(vals...)
		t2.MustInsert(vals...)
	}
	return indexed, bare
}

func TestPlanIndependence(t *testing.T) {
	indexed, bare := buildPair(t, 5, 400)
	queries := []string{
		"SELECT a.id FROM n a WHERE a.val = 3 ORDER BY a.id",
		"SELECT a.id FROM n a WHERE a.id = 17",
		"SELECT b.id FROM n a, n b WHERE a.id = 5 AND b.par = a.id ORDER BY b.id",
		"SELECT b.id FROM n a, n b WHERE a.id = 5 AND b.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF' ORDER BY b.id",
		"SELECT b.id FROM n a, n b WHERE a.id = 5 AND b.dewey_pos > a.dewey_pos || X'FF' ORDER BY b.id",
		"SELECT b.id FROM n a, n b WHERE a.id = 40 AND a.dewey_pos > b.dewey_pos || X'FF' ORDER BY b.id",
		"SELECT DISTINCT a.tag FROM n a ORDER BY a.tag",
		"SELECT a.id FROM n a WHERE EXISTS (SELECT NULL FROM n b WHERE b.par = a.id AND b.val = 2) ORDER BY a.id",
		"SELECT a.id FROM n a WHERE NOT EXISTS (SELECT NULL FROM n b WHERE b.par = a.id) AND a.val < 3 ORDER BY a.id",
		"SELECT a.id FROM n a WHERE (SELECT COUNT(*) FROM n b WHERE b.par = a.id) = 2 ORDER BY a.id",
		"SELECT a.id FROM n a WHERE a.tag = 'b' AND a.val >= 5 ORDER BY a.id DESC",
		"SELECT a.id FROM n a WHERE a.par IS NULL ORDER BY a.id",
		"SELECT a.id FROM n a, n b WHERE a.val = b.val AND a.id = 9 AND b.id <> 9 ORDER BY b.id",
	}
	for _, q := range queries {
		ri, err := runSQL(indexed, q)
		if err != nil {
			t.Fatalf("%s (indexed): %v", q, err)
		}
		rb, err := runSQL(bare, q)
		if err != nil {
			t.Fatalf("%s (bare): %v", q, err)
		}
		if !equalResults(ri, rb) {
			t.Errorf("%s: indexed %d rows, bare %d rows", q, len(ri.Rows), len(rb.Rows))
		}
	}
}

// TestPlanIndependenceRandomRanges drives the Dewey range machinery
// with many random bound combinations.
func TestPlanIndependenceRandomRanges(t *testing.T) {
	indexed, bare := buildPair(t, 11, 300)
	r := rand.New(rand.NewSource(3))
	ops := []string{">", ">=", "<", "<="}
	for i := 0; i < 60; i++ {
		anchor := 1 + r.Intn(200)
		op := ops[r.Intn(len(ops))]
		q := fmt.Sprintf(
			"SELECT b.id FROM n a, n b WHERE a.id = %d AND b.dewey_pos %s a.dewey_pos ORDER BY b.id",
			anchor, op)
		ri, err := runSQL(indexed, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rb, err := runSQL(bare, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !equalResults(ri, rb) {
			t.Errorf("%s: indexed %d rows, bare %d rows", q, len(ri.Rows), len(rb.Rows))
		}
	}
}

func TestExplainOutput(t *testing.T) {
	indexed, _ := buildPair(t, 2, 100)
	st := sqlast.MustParse("SELECT b.id FROM n a, n b WHERE a.id = 5 AND b.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF'")
	plan, err := indexed.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
	// Union explain.
	st = sqlast.MustParse("SELECT a.id FROM n a UNION SELECT b.id FROM n b")
	plan, err = indexed.Explain(st)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty union plan")
	}
	// Error propagation.
	if _, err := indexed.Explain(sqlast.MustParse("SELECT x.id FROM missing x")); err == nil {
		t.Fatal("explain of bad statement should fail")
	}
}

// TestCorrelationTwoLevels exercises EXISTS nested inside EXISTS with
// correlation to the outermost table.
func TestCorrelationTwoLevels(t *testing.T) {
	indexed, bare := buildPair(t, 9, 200)
	q := "SELECT a.id FROM n a WHERE EXISTS (" +
		"SELECT NULL FROM n b WHERE b.par = a.id AND EXISTS (" +
		"SELECT NULL FROM n c WHERE c.par = b.id AND c.val = a.val)) ORDER BY a.id"
	ri, err := runSQL(indexed, q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runSQL(bare, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(ri, rb) {
		t.Errorf("nested correlation differs: %d vs %d rows", len(ri.Rows), len(rb.Rows))
	}
}

func TestShadowingRejected(t *testing.T) {
	db, _ := buildPair(t, 1, 10)
	// Inner subselect reusing the outer's effective name must be an
	// error (ambiguous correlation), not silent shadowing.
	_, err := runSQL(db, "SELECT a.id FROM n a WHERE EXISTS (SELECT NULL FROM n a WHERE a.id = 1)")
	if err == nil {
		t.Fatal("name shadowing should be rejected")
	}
}
