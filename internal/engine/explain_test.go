package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlast"
)

// TestExplainGolden pins the EXPLAIN rendering of one representative
// query per access-path kind (full scan, index point lookup, Dewey
// descendant range, ancestor prefix probe). The shapes mirror the
// paper's Figure 1 document: the descendant query is the PPF
// Dewey-interval join, the ancestor query its prefix-probe inverse.
func TestExplainGolden(t *testing.T) {
	db := fixtureDB(t)
	cases := []struct {
		name, sql, want string
	}{
		{
			name: "full scan",
			sql:  "SELECT a.id FROM A a",
			want: "scan a: full scan est_rows=1\n" +
				"project: a.id\n",
		},
		{
			name: "index point lookup",
			sql:  "SELECT b.id FROM B b WHERE b.id = 2",
			want: "scan b: index lookup B_pk est_rows=1\n" +
				"filter b: b.id = 2 est_rows=1\n" +
				"project: b.id\n",
		},
		{
			name: "descendant Dewey range",
			sql: "SELECT d.id FROM C c, D d WHERE c.id = 3 AND " +
				"d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' ORDER BY d.id",
			want: "scan c: index lookup C_pk est_rows=1\n" +
				"filter c: c.id = 3 est_rows=1\n" +
				"scan d: index range scan (two-sided) D_dp est_rows=1\n" +
				"filter d: d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' est_rows=1\n" +
				"project: d.id\n" +
				"sort: d.id\n",
		},
		{
			name: "ancestor prefix probe",
			sql: "SELECT c.id FROM D d, C c WHERE d.id = 4 AND " +
				"d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' ORDER BY c.id DESC",
			want: "scan d: index lookup D_pk est_rows=1\n" +
				"filter d: d.id = 4 est_rows=1\n" +
				"scan c: index prefix lookups C_dp est_rows=2\n" +
				"filter c: d.dewey_pos BETWEEN c.dewey_pos AND c.dewey_pos || X'FF' est_rows=2\n" +
				"project: c.id\n" +
				"sort: c.id DESC\n",
		},
		{
			name: "distinct over hash-joinable pair",
			sql:  "SELECT DISTINCT g.id FROM G g, B b WHERE g.par = b.id",
			want: "scan b: full scan est_rows=2\n" +
				"scan g: index lookup G_par est_rows=1\n" +
				"filter g: g.par = b.id est_rows=1\n" +
				"project: g.id\n" +
				"distinct\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := sqlast.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Explain(st)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("EXPLAIN %s:\ngot:\n%s\nwant:\n%s", tc.sql, got, tc.want)
			}
		})
	}
}

// TestExplainAnalyzeStats checks that EXPLAIN ANALYZE annotates every
// operator with a stats block and that the numbers reflect the
// execution: index scans record probes, subplans record one loop per
// outer evaluation, dedup reports candidates in vs kept out.
func TestExplainAnalyzeStats(t *testing.T) {
	db, _ := buildPair(t, 7, 300)
	st, err := sqlast.Parse(
		"SELECT DISTINCT a.tag FROM n a WHERE EXISTS " +
			"(SELECT b.id FROM n b WHERE b.par = a.id) ORDER BY a.tag DESC")
	if err != nil {
		t.Fatal(err)
	}
	text, err := db.ExplainAnalyzeWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "total:") {
			continue
		}
		if !strings.Contains(line, "[loops=") || !strings.Contains(line, "time=") {
			t.Errorf("operator line missing stats block: %q", line)
		}
	}
	for _, want := range []string{
		"scan a: full scan [loops=1 in=0 out=300 ",
		"exists subplan [loops=300 ",
		"distinct [loops=1 in=",
		"sort: a.tag DESC [loops=1 ",
		"total: rows=3 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	// The correlated subplan probes the n_par index once per outer row.
	probed := false
	for _, line := range lines {
		if strings.Contains(line, "index lookup n_par") && strings.Contains(line, "probes=300") {
			probed = true
		}
	}
	if !probed {
		t.Errorf("expected 300 recorded index probes on the subplan scan:\n%s", text)
	}
}

// TestExplainStatementSurface runs EXPLAIN / EXPLAIN ANALYZE as SQL
// statements: the plan comes back as a one-column result, and nesting
// is rejected at parse time.
func TestExplainStatementSurface(t *testing.T) {
	db := fixtureDB(t)
	res := mustRun(t, db, "EXPLAIN SELECT b.id FROM B b WHERE b.id = 2")
	if len(res.Cols) != 1 || res.Cols[0] != "plan" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].S != "scan b: index lookup B_pk est_rows=1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustRun(t, db, "EXPLAIN ANALYZE SELECT b.id FROM B b WHERE b.id = 2")
	if got := res.Rows[0][0].S; !strings.Contains(got, "[loops=1 ") {
		t.Fatalf("first analyze line = %q", got)
	}
	if last := res.Rows[len(res.Rows)-1][0].S; !strings.HasPrefix(last, "total: rows=1 ") {
		t.Fatalf("last analyze line = %q", last)
	}
	if _, err := runSQL(db, "EXPLAIN EXPLAIN SELECT b.id FROM B b"); err == nil {
		t.Fatal("nested EXPLAIN did not error")
	}
}

// TestExplainAnalyzeParallelMergesStats executes the same statement
// serially and at Parallelism 8: results must stay byte-identical and
// the merged parallel frame must account for every candidate row.
func TestExplainAnalyzeParallelMergesStats(t *testing.T) {
	db, _ := buildPair(t, 11, 900)
	st, err := sqlast.Parse("SELECT DISTINCT a.tag, a.val FROM n a WHERE a.val >= 2")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.RunWithOptions(st, ExecOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if serial.Rows[i][j].String() != par.Rows[i][j].String() {
				t.Fatalf("row %d col %d: serial %v parallel %v",
					i, j, serial.Rows[i][j], par.Rows[i][j])
			}
		}
	}
	cs, err := db.compiledFor(st, sqlast.Render(st))
	if err != nil {
		t.Fatal(err)
	}
	_, frame, err := db.runCompiledFrame(nil, cs, ExecOptions{Parallelism: 8}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	phys := cs.sel.phys
	scan := frame[phys.scans[0].id]
	if scan.RowsOut() != 900 {
		t.Errorf("driving scan rowsOut = %d, want 900", scan.RowsOut())
	}
	dedup := frame[phys.dedup.id]
	if dedup.RowsIn() <= dedup.RowsOut() {
		t.Errorf("dedup in=%d out=%d: expected candidates to exceed kept rows",
			dedup.RowsIn(), dedup.RowsOut())
	}
	if dedup.RowsOut() != int64(len(par.Rows)) {
		t.Errorf("dedup rowsOut = %d, want %d result rows", dedup.RowsOut(), len(par.Rows))
	}
}

// TestParallelDeferredDistinctFirstWins pins the deferred-DISTINCT
// contract: under parallelism the dedup set is applied after morsels
// are merged back into serial order, so the first duplicate in merged
// (= serial) order is the one kept. The query projects a column
// outside the engine's result comparison (id of the kept row) only
// through ordering: with no ORDER BY, output order is first-occurrence
// order and must match serial execution exactly.
func TestParallelDeferredDistinctFirstWins(t *testing.T) {
	db, _ := buildPair(t, 13, 700)
	st, err := sqlast.Parse("SELECT DISTINCT a.tag FROM n a")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := db.RunWithOptions(st, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.RunWithOptions(st, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("serial %d rows, parallel %d rows", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i][0].S != par.Rows[i][0].S {
			t.Fatalf("row %d: serial %q parallel %q — first-in-merged-order must win",
				i, serial.Rows[i][0].S, par.Rows[i][0].S)
		}
	}
	cs, err := db.compiledFor(st, sqlast.Render(st))
	if err != nil {
		t.Fatal(err)
	}
	_, frame, err := db.runCompiledFrame(nil, cs, ExecOptions{Parallelism: 4}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	dedup := frame[cs.sel.phys.dedup.id]
	if dedup.RowsIn() != 700 {
		t.Errorf("dedup rowsIn = %d, want all 700 candidates", dedup.RowsIn())
	}
	if dedup.RowsOut() != int64(len(serial.Rows)) {
		t.Errorf("dedup rowsOut = %d, want %d", dedup.RowsOut(), len(serial.Rows))
	}
}

// NULL ordering: the engine treats NULL as the smallest value, so
// NULLs come first under ASC and last under DESC — on both sort paths
// (the memcomparable fast path and the generic lessKeys fallback).
// See DESIGN.md §9.

// nullsFirstLast reports whether a result column starts and ends with
// NULL, after asserting the column holds both NULL and non-NULL
// values (otherwise the ordering assertion would be vacuous).
func nullsFirstLast(t *testing.T, res *Result, col int) (first, last bool) {
	t.Helper()
	var sawNull, sawVal bool
	for _, r := range res.Rows {
		if r[col].IsNull() {
			sawNull = true
		} else {
			sawVal = true
		}
	}
	if !sawNull || !sawVal {
		t.Fatalf("need both NULL and non-NULL keys, got rows %v", res.Rows)
	}
	return res.Rows[0][col].IsNull(), res.Rows[len(res.Rows)-1][col].IsNull()
}

// TestOrderByNullsMemcomparable drives the fast sort path (int keys
// with NULLs admit the memcomparable encoding): n.par is NULL exactly
// for root nodes.
func TestOrderByNullsMemcomparable(t *testing.T) {
	db, _ := buildPair(t, 3, 60)
	res := mustRun(t, db, "SELECT a.par FROM n a ORDER BY a.par, a.id")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC: want NULLs first, got rows %v", res.Rows)
	}
	res = mustRun(t, db, "SELECT a.par FROM n a ORDER BY a.par DESC, a.id")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC: want NULLs last, got rows %v", res.Rows)
	}
}

// TestOrderByNullsGeneric forces the generic lessKeys path with a
// float sort key (floats have no memcomparable encoding); NULL
// arithmetic yields NULL, preserving the NULL keys.
func TestOrderByNullsGeneric(t *testing.T) {
	db, _ := buildPair(t, 3, 60)
	res := mustRun(t, db, "SELECT a.par + 0.5 FROM n a ORDER BY a.par + 0.5, a.id")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC float keys: want NULLs first, got rows %v", res.Rows)
	}
	res = mustRun(t, db, "SELECT a.par + 0.5 FROM n a ORDER BY a.par + 0.5 DESC, a.id")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC float keys: want NULLs last, got rows %v", res.Rows)
	}
}

// TestOrderByNullsUnion covers the UNION ordering path, which sorts by
// projected column position.
func TestOrderByNullsUnion(t *testing.T) {
	db := fixtureDB(t)
	// A.par is NULL (document root); C.par is 2.
	res := mustRun(t, db,
		"SELECT c.par AS p FROM C c UNION SELECT a.par AS p FROM A a ORDER BY p")
	if first, last := nullsFirstLast(t, res, 0); !first || last {
		t.Fatalf("ASC: want NULL first, got rows %v", res.Rows)
	}
	res = mustRun(t, db,
		"SELECT c.par AS p FROM C c UNION SELECT a.par AS p FROM A a ORDER BY p DESC")
	if first, last := nullsFirstLast(t, res, 0); first || !last {
		t.Fatalf("DESC: want NULL last, got rows %v", res.Rows)
	}
}

// TestOperatorCount sanity-checks the per-statement operator metric
// used by xbench.
func TestOperatorCount(t *testing.T) {
	db := fixtureDB(t)
	st, err := sqlast.Parse("SELECT b.id FROM B b WHERE b.id = 2")
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.OperatorCount(st)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // scan, filter, project
		t.Fatalf("OperatorCount = %d, want 3", n)
	}
}
