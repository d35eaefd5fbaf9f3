package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/sqlast"
)

// fixtureDB builds a small database shaped like the paper's Figure 1
// schema-aware mapping: one relation per element name plus a shared
// paths relation.
func fixtureDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()

	paths, err := db.CreateTable("paths",
		Column{"id", TInt}, Column{"path", TText})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paths.CreateIndex("paths_pk", "id"); err != nil {
		t.Fatal(err)
	}
	pathID := map[string]int64{}
	for i, p := range []string{"/A", "/A/B", "/A/B/C", "/A/B/C/D", "/A/B/C/E", "/A/B/C/E/F", "/A/B/G", "/A/B/G/G"} {
		paths.MustInsert(NewInt(int64(i+1)), NewText(p))
		pathID[p] = int64(i + 1)
	}

	mk := func(name string, extra ...Column) *Table {
		cols := []Column{{"id", TInt}, {"par", TInt}, {"dewey_pos", TBytes}, {"path_id", TInt}}
		cols = append(cols, extra...)
		tb, err := db.CreateTable(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		for _, ixc := range []struct {
			n    string
			cols []string
		}{
			{name + "_pk", []string{"id"}},
			{name + "_par", []string{"par"}},
			{name + "_dp", []string{"dewey_pos", "path_id"}},
		} {
			if _, err := tb.CreateIndex(ixc.n, ixc.cols...); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}

	// Document of Figure 1(b): ids and Dewey positions as in the paper.
	a := mk("A", Column{"x", TInt})
	b := mk("B")
	c := mk("C")
	d := mk("D", Column{"text", TText})
	e := mk("E")
	f := mk("F", Column{"text", TText})
	g := mk("G")

	dp := func(ords ...int) Value { return NewBytes(dewey.New(ords...)) }
	a.MustInsert(NewInt(1), Null, dp(1), NewInt(pathID["/A"]), NewInt(3))
	b.MustInsert(NewInt(2), NewInt(1), dp(1, 1), NewInt(pathID["/A/B"]))
	b.MustInsert(NewInt(10), NewInt(1), dp(1, 2), NewInt(pathID["/A/B"]))
	c.MustInsert(NewInt(3), NewInt(2), dp(1, 1, 1), NewInt(pathID["/A/B/C"]))
	c.MustInsert(NewInt(5), NewInt(2), dp(1, 1, 2), NewInt(pathID["/A/B/C"]))
	d.MustInsert(NewInt(4), NewInt(3), dp(1, 1, 1, 1), NewInt(pathID["/A/B/C/D"]), NewText("4"))
	e.MustInsert(NewInt(6), NewInt(5), dp(1, 1, 2, 1), NewInt(pathID["/A/B/C/E"]))
	f.MustInsert(NewInt(7), NewInt(6), dp(1, 1, 2, 1, 1), NewInt(pathID["/A/B/C/E/F"]), NewText("2"))
	f.MustInsert(NewInt(8), NewInt(6), dp(1, 1, 2, 1, 2), NewInt(pathID["/A/B/C/E/F"]), NewText("7"))
	g.MustInsert(NewInt(9), NewInt(2), dp(1, 1, 3), NewInt(pathID["/A/B/G"]))
	g.MustInsert(NewInt(11), NewInt(10), dp(1, 2, 1), NewInt(pathID["/A/B/G"]))
	g.MustInsert(NewInt(12), NewInt(11), dp(1, 2, 1, 1), NewInt(pathID["/A/B/G/G"]))
	return db
}

func ids(res *Result) []int64 {
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].I)
	}
	return out
}

func mustRun(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := runSQL(db, sql)
	if err != nil {
		t.Fatalf("run %s: %v", sql, err)
	}
	return res
}

// runSQL parses a statement and runs it through the statement
// boundary with default options.
func runSQL(db *DB, sql string) (*Result, error) {
	st, err := sqlast.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.RunWithOptions(st, ExecOptions{})
}

func TestSimpleSelect(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT F.id, F.text FROM F ORDER BY F.id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 7 || res.Rows[1][1].S != "7" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "F.id" {
		t.Errorf("col name = %q", res.Cols[0])
	}
}

func TestLiteralFilterAndAlias(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT f.id AS fid FROM F f WHERE f.text = '2'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "fid" {
		t.Errorf("alias = %q", res.Cols[0])
	}
}

func TestNumericCoercionInFilter(t *testing.T) {
	db := fixtureDB(t)
	// text column compared with a number (the paper's 'F=2' predicate).
	res := mustRun(t, db, "SELECT F.id FROM F WHERE F.text = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFKJoinUsesIndex(t *testing.T) {
	db := fixtureDB(t)
	// child axis: C.par = B.id (Table 2 FK join).
	sql := "SELECT C.id FROM B, C WHERE C.par = B.id AND B.id = 2 ORDER BY C.id"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("ids = %v", got)
	}
	plan, err := db.Explain(sqlast.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index lookup") {
		t.Errorf("plan should use an index lookup:\n%s", plan)
	}
}

func TestDeweyBetweenJoin(t *testing.T) {
	db := fixtureDB(t)
	// Descendant axis per Table 2 (1): F under B(id=2).
	sql := "SELECT F.id FROM B, F WHERE B.id = 2 AND F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF' ORDER BY F.dewey_pos"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("ids = %v", got)
	}
	plan, err := db.Explain(sqlast.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index range scan (two-sided)") {
		t.Errorf("descendant join should use a two-sided range scan:\n%s", plan)
	}
}

func TestFollowingJoin(t *testing.T) {
	db := fixtureDB(t)
	// Following axis per Table 2 (3): nodes after C(id=5) that are G.
	sql := "SELECT G.id FROM C, G WHERE C.id = 5 AND G.dewey_pos > C.dewey_pos || X'FF' ORDER BY G.dewey_pos"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 3 || got[0] != 9 || got[1] != 11 || got[2] != 12 {
		t.Fatalf("ids = %v", got)
	}
}

func TestPrecedingJoin(t *testing.T) {
	db := fixtureDB(t)
	// Preceding per Table 2 (5): D(id=4) precedes F? D.dewey || FF < F.dewey.
	sql := "SELECT D.id FROM F, D WHERE F.id = 7 AND F.dewey_pos > D.dewey_pos || X'FF'"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ids = %v", got)
	}
}

func TestRegexpLikeWithPathsJoin(t *testing.T) {
	db := fixtureDB(t)
	sql := "SELECT DISTINCT F.id FROM F, paths F_paths WHERE F.path_id = F_paths.id AND REGEXP_LIKE(F_paths.path, '^/A/B/C/(.+/)?F$') ORDER BY F.id"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 2 {
		t.Fatalf("ids = %v", got)
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := fixtureDB(t)
	// B elements having a descendant F with text = 2 (paper Table 5-1 shape).
	sql := "SELECT B.id FROM B WHERE EXISTS (SELECT NULL FROM F WHERE F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF' AND F.text = 2)"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ids = %v", got)
	}
	// NOT EXISTS.
	sql = "SELECT B.id FROM B WHERE NOT EXISTS (SELECT NULL FROM F WHERE F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF')"
	res = mustRun(t, db, sql)
	if got := ids(res); len(got) != 1 || got[0] != 10 {
		t.Fatalf("ids = %v", got)
	}
}

func TestScalarCountSubquery(t *testing.T) {
	db := fixtureDB(t)
	// Count of F descendants per B.
	sql := "SELECT B.id FROM B WHERE (SELECT COUNT(*) FROM F WHERE F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF') = 2"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ids = %v", got)
	}
	// Top-level COUNT(*).
	res = mustRun(t, db, "SELECT COUNT(*) FROM G")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestUnionDedupAndOrder(t *testing.T) {
	db := fixtureDB(t)
	sql := "SELECT C.id AS id FROM C UNION SELECT C.id AS id FROM C UNION SELECT D.id AS id FROM D ORDER BY id DESC"
	res := mustRun(t, db, sql)
	if got := ids(res); len(got) != 3 || got[0] != 5 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("ids = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT DISTINCT F.par FROM F")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByDeweyBytes(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT G.id FROM G ORDER BY G.dewey_pos")
	if got := ids(res); got[0] != 9 || got[1] != 11 || got[2] != 12 {
		t.Fatalf("ids = %v", got)
	}
	res = mustRun(t, db, "SELECT G.id FROM G ORDER BY G.dewey_pos DESC")
	if got := ids(res); got[0] != 12 {
		t.Fatalf("desc ids = %v", got)
	}
}

func TestIsNullAndNot(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT A.id FROM A WHERE A.par IS NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustRun(t, db, "SELECT F.id FROM F WHERE F.text IS NOT NULL AND NOT F.text = '2'")
	if got := ids(res); len(got) != 1 || got[0] != 8 {
		t.Fatalf("ids = %v", got)
	}
}

func TestArithmeticAndFunctions(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT F.id FROM F WHERE F.text * 2 = 4")
	if got := ids(res); len(got) != 1 || got[0] != 7 {
		t.Fatalf("ids = %v", got)
	}
	res = mustRun(t, db, "SELECT LENGTH(F.text), LOWER('AbC'), UPPER('x'), ABS(0 - 5) FROM F WHERE F.id = 7")
	r := res.Rows[0]
	if r[0].I != 1 || r[1].S != "abc" || r[2].S != "X" || r[3].I != 5 {
		t.Fatalf("row = %v", r)
	}
}

func TestCrossProductFallback(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "SELECT C.id, D.id FROM C, D")
	if len(res.Rows) != 2 {
		t.Fatalf("cross product rows = %d", len(res.Rows))
	}
}

func TestHashJoinOnUnindexedColumn(t *testing.T) {
	db := fixtureDB(t)
	// text is unindexed; joining D.text = F.text must use the hash path.
	sql := "SELECT F.id FROM D, F WHERE F.text = D.text"
	res := mustRun(t, db, sql)
	if len(res.Rows) != 0 { // D.text='4', F.texts are 2 and 7
		t.Fatalf("rows = %v", res.Rows)
	}
	plan, err := db.Explain(sqlast.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Errorf("plan should use hash join:\n%s", plan)
	}
}

func TestPlanStartsWithSelectiveTable(t *testing.T) {
	db := fixtureDB(t)
	sql := "SELECT F.id FROM A, F WHERE A.x = 3 AND F.dewey_pos BETWEEN A.dewey_pos AND A.dewey_pos || X'FF'"
	plan, err := db.Explain(sqlast.MustParse(sql))
	if err != nil {
		t.Fatal(err)
	}
	var scans []string
	for _, line := range strings.Split(strings.TrimSpace(plan), "\n") {
		if strings.HasPrefix(line, "scan ") {
			scans = append(scans, line)
		}
	}
	if len(scans) != 2 || !strings.HasPrefix(scans[0], "scan A:") {
		t.Errorf("plan should start with A:\n%s", plan)
	}
	if len(scans) == 2 && !strings.Contains(scans[1], "index range scan") {
		t.Errorf("second step should range-scan F:\n%s", plan)
	}
}

func TestErrors(t *testing.T) {
	db := fixtureDB(t)
	for _, sql := range []string{
		"SELECT x.id FROM missing x",
		"SELECT F.nope FROM F",
		"SELECT id FROM F, D", // ambiguous
		"SELECT nosuch FROM F",
		"SELECT UNKNOWNFN(F.id) FROM F",
		"SELECT F.id FROM F WHERE REGEXP_LIKE(F.text, '(')",
		"SELECT F.id FROM F, F", // duplicate name needs alias
		"SELECT F.id FROM F WHERE (SELECT F2.id, F2.par FROM F F2) = 1",
		"SELECT F.id FROM F UNION SELECT G.id, G.par FROM G",
		"SELECT F.id FROM F UNION SELECT G.id FROM G ORDER BY 1 + 1",
	} {
		if _, err := runSQL(db, sql); err == nil {
			t.Errorf("RunSQL(%q) should fail", sql)
		}
	}
}

func TestTableErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("no columns should fail")
	}
	tb, err := db.CreateTable("t", Column{"a", TInt}, Column{"b", TText})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", Column{"a", TInt}); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.CreateTable("u", Column{"a", TInt}, Column{"a", TInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := tb.Insert([]Value{NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
	if _, err := tb.Insert([]Value{NewText("x"), NewText("y")}); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := tb.Insert([]Value{NewInt(1), Null}); err != nil {
		t.Errorf("NULL should be accepted: %v", err)
	}
	if _, err := tb.CreateIndex("ix"); err == nil {
		t.Error("index without columns should fail")
	}
	if _, err := tb.CreateIndex("ix", "zz"); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := tb.CreateIndex("ix", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("ix", "b"); err == nil {
		t.Error("duplicate index name should fail")
	}
}

func TestIndexMaintainedAfterCreate(t *testing.T) {
	db := NewDB()
	tb, _ := db.CreateTable("t", Column{"a", TInt})
	tb.MustInsert(NewInt(5))
	if _, err := tb.CreateIndex("t_a", "a"); err != nil {
		t.Fatal(err)
	}
	tb.MustInsert(NewInt(6))
	res := mustRun(t, db, "SELECT t.a FROM t WHERE t.a = 6")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	st := tb.Stats()
	if st.Rows != 2 || st.Indexes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJoinSteps(t *testing.T) {
	st := sqlast.MustParse("SELECT a FROM t, u WHERE EXISTS (SELECT NULL FROM v, w)")
	if got := JoinSteps(st); got != 4 {
		t.Fatalf("JoinSteps = %d, want 4", got)
	}
	st = sqlast.MustParse("SELECT a FROM t UNION SELECT a FROM u")
	if got := JoinSteps(st); got != 2 {
		t.Fatalf("JoinSteps = %d, want 2", got)
	}
}

func TestSortedTableSizes(t *testing.T) {
	db := fixtureDB(t)
	sizes := db.SortedTableSizes()
	if len(sizes) != 8 {
		t.Fatalf("sizes = %v", sizes)
	}
	if sizes[0] != "A=1" {
		t.Fatalf("first = %q", sizes[0])
	}
}

func TestValueHelpers(t *testing.T) {
	if !NewBool(true).Truth() || NewBool(false).Truth() {
		t.Error("bool truth wrong")
	}
	if Null.Truth() {
		t.Error("NULL should not be true")
	}
	if Null.String() != "NULL" {
		t.Error("NULL rendering")
	}
	if NewBytes([]byte{0xAB}).String() != "X'AB'" {
		t.Error("bytes rendering")
	}
	if NewBool(true).String() != "TRUE" || NewBool(false).String() != "FALSE" {
		t.Error("bool rendering")
	}
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparison should be unknown")
	}
	if _, ok := Compare(NewBytes(nil), NewInt(1)); ok {
		t.Error("bytes vs int should be incomparable")
	}
	if c, ok := Compare(NewText("10"), NewInt(9)); !ok || c <= 0 {
		t.Error("numeric coercion of text failed")
	}
	if c, ok := Compare(NewText("b"), NewText("a")); !ok || c <= 0 {
		t.Error("text comparison failed")
	}
	if Equal(NewFloat(2), NewInt(2)) != true {
		t.Error("float/int equality failed")
	}
	v, err := Concat(NewText("a"), NewText("b"))
	if err != nil || v.S != "ab" {
		t.Error("text concat failed")
	}
	v, err = Concat(NewBytes([]byte{1}), NewBytes([]byte{2}))
	if err != nil || len(v.B) != 2 {
		t.Error("bytes concat failed")
	}
	if _, err := Concat(NewBytes(nil), NewInt(1)); err == nil {
		t.Error("bytes||int should fail")
	}
	if v, _ := Concat(Null, NewText("x")); !v.IsNull() {
		t.Error("NULL concat should be NULL")
	}
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero should fail")
	}
	if v, err := Arith('/', NewInt(7), NewInt(2)); err != nil || v.F != 3.5 {
		t.Errorf("7/2 = %v (%v)", v, err)
	}
	if v, err := Arith('%', NewInt(7), NewInt(2)); err != nil || v.I != 1 {
		t.Errorf("7%%2 = %v (%v)", v, err)
	}
}

func TestEqualResultsHelper(t *testing.T) {
	a := &Result{Rows: [][]Value{{NewInt(1)}, {NewInt(2)}}}
	b := &Result{Rows: [][]Value{{NewInt(1)}, {NewInt(2)}}}
	c := &Result{Rows: [][]Value{{NewInt(2)}, {NewInt(1)}}}
	if !equalResults(a, b) || equalResults(a, c) {
		t.Error("equalResults wrong")
	}
}

func BenchmarkDeweyRangeJoin(b *testing.B) {
	db := NewDB()
	tb, _ := db.CreateTable("n", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	// A two-level tree: 100 parents x 100 children.
	for p := 1; p <= 100; p++ {
		parent := dewey.New(1, p)
		tb.MustInsert(NewInt(int64(p)), NewBytes(parent))
		for c := 1; c <= 100; c++ {
			tb.MustInsert(NewInt(int64(p*1000+c)), NewBytes(parent.Child(c)))
		}
	}
	if _, err := tb.CreateIndex("n_dp", "dewey_pos"); err != nil {
		b.Fatal(err)
	}
	st := sqlast.MustParse("SELECT d.id FROM n p, n d WHERE p.id = 42 AND d.dewey_pos BETWEEN p.dewey_pos AND p.dewey_pos || X'FF' AND d.id <> p.id")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.RunWithOptions(st, ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 100 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

func ExampleDB_RunWithOptions() {
	db := NewDB()
	tb, _ := db.CreateTable("t", Column{"id", TInt}, Column{"name", TText})
	tb.MustInsert(NewInt(1), NewText("ppf"))
	st, _ := sqlast.Parse("SELECT t.name FROM t WHERE t.id = 1")
	res, _ := db.RunWithOptions(st, ExecOptions{})
	fmt.Println(res.Rows[0][0])
	// Output: ppf
}
