package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/shred"
)

func setupEdge(t testing.TB) (*EdgeTranslator, *shred.EdgeStore, *native.Evaluator) {
	t.Helper()
	st, err := shred.NewEdge()
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	return NewEdge(nil), st, native.New(doc)
}

func checkEdge(t *testing.T, tr *EdgeTranslator, st *shred.EdgeStore, ev *native.Evaluator, q string) {
	t.Helper()
	trans, err := tr.Translate(q)
	if err != nil {
		t.Fatalf("Translate(%q): %v", q, err)
	}
	res, err := st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatalf("Run(%q = %s): %v", q, trans.SQL, err)
	}
	got := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		got = append(got, r[0].I)
	}
	want, err := ev.ElementIDs(q)
	if err != nil {
		t.Fatalf("oracle(%q): %v", q, err)
	}
	want = mapTextToParent(ev, q, want)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %v\nwant %v\nSQL: %s", q, got, want, trans.SQL)
	}
}

func TestEdgeEndToEndAgainstOracle(t *testing.T) {
	tr, st, ev := setupEdge(t)
	queries := []string{
		"/A",
		"/A/B",
		"/A/B/C",
		"//F",
		"/A//F",
		"//G//G",
		"/A/*",
		"/A/B/*",
		"//C/*/F",
		"/A[@x=3]/B/C//F",
		"/A[@x=4]/B",
		"/A[@x]/B",
		"//F[. = 2]",
		"//F[text() = 2]",
		"/A/B[C/E/F=2]",
		"/A/B[C]",
		"/A/B[not(C)]",
		"/A/B[C and G]",
		"/A/B[C or G]",
		"//F/parent::E",
		"//F/ancestor::B",
		"//F/parent::E/ancestor::B",
		"//F/ancestor-or-self::F",
		"//G/ancestor::G",
		"/A/B/C/following-sibling::G",
		"//G/preceding-sibling::C",
		"//D/following::F",
		"//F/preceding::D",
		"//F[parent::E]",
		"//F[parent::E or ancestor::G]",
		"//D[parent::*/parent::B]",
		"/A/B[C/*]",
		"/A/B/C/D/text()",
		"/A/@x",
		"//D[@x]",
		"//D[@x='4']",
		"//E[count(F)=2]",
		"/A/B/C[2]",
		"/A/B/C[position()=1]",
		"//F[. * 2 = 4]",
		"//E[F = F]",
		"/A/B/C | /A/B/G",
		"//*[@x]",
		"//*",
	}
	for _, q := range queries {
		checkEdge(t, tr, st, ev, q)
	}
}

func TestEdgeSQLShape(t *testing.T) {
	tr, _, _ := setupEdge(t)
	// A forward PPF is one edge relation joined with paths.
	trans, err := tr.Translate("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 1 {
		t.Errorf("selects = %d", trans.Selects)
	}
	if trans.Joins != 2 { // e1 + paths
		t.Errorf("joins = %d, SQL: %s", trans.Joins, trans.SQL)
	}
	if !strings.Contains(trans.SQL, "REGEXP_LIKE(e1_paths.path, '^/A/B/C/(.+/)?F$')") {
		t.Errorf("missing regex: %s", trans.SQL)
	}
	// No SQL splitting even for wildcards.
	trans, err = tr.Translate("/A/B/*")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 1 {
		t.Errorf("wildcard should not split on the Edge mapping: %s", trans.SQL)
	}
	// Attribute predicates go through the attr relation.
	trans, err = tr.Translate("//D[@x='4']")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "attr") || !strings.Contains(trans.SQL, "aname = 'x'") {
		t.Errorf("attribute predicate shape wrong: %s", trans.SQL)
	}
	// Structural joins are self-joins of the edge relation.
	trans, err = tr.Translate("//F/ancestor::B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "e1.dewey_pos BETWEEN e2.dewey_pos AND e2.dewey_pos || X'FF'") {
		t.Errorf("ancestor self-join shape wrong: %s", trans.SQL)
	}
}

func TestEdgeErrors(t *testing.T) {
	tr, _, _ := setupEdge(t)
	for _, q := range []string{
		"//F[last()]",
		"/A/B/*[1]",
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("Translate(%q) should fail", q)
		}
	}
}
