package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func paperSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder("A").
		Element("A", "B").
		Element("B", "C", "G").
		Element("C", "D", "E").
		Element("E", "F").
		Element("G", "G").
		Attrs("A", "x").
		Attrs("D", "x").
		Text("F", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paperDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(
		`<A x="3"><B><C><D x="4">4</D></C><C><E><F>2</F><F>7</F></E></C><G/></B><B><G><G/></G></B></A>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// runQuery translates a query and executes it against the shredded
// store, returning the selected element ids in document order.
func runQuery(t testing.TB, tr *Translator, st *shred.SchemaAwareStore, q string) []int64 {
	t.Helper()
	trans, err := tr.Translate(q)
	if err != nil {
		t.Fatalf("Translate(%q): %v", q, err)
	}
	res, err := st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatalf("Run(%q = %s): %v", q, trans.SQL, err)
	}
	ids := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		ids = append(ids, r[0].I)
	}
	return ids
}

func setup(t testing.TB) (*Translator, *shred.SchemaAwareStore, *native.Evaluator) {
	t.Helper()
	s := paperSchema(t)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	return New(s, nil), st, native.New(doc)
}

// check runs a query through both the translator+engine and the
// native oracle and compares element id sets.
func check(t *testing.T, tr *Translator, st *shred.SchemaAwareStore, ev *native.Evaluator, q string) {
	t.Helper()
	got := runQuery(t, tr, st, q)
	want, err := ev.ElementIDs(q)
	if err != nil {
		t.Fatalf("oracle(%q): %v", q, err)
	}
	want = mapTextToParent(ev, q, want)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		trans, _ := tr.Translate(q)
		t.Errorf("%s:\n got %v\nwant %v\nSQL: %s", q, got, want, trans.SQL)
	}
}

// mapTextToParent maps text-node results of the oracle to their
// parent element ids (the relational systems return element rows for
// text() steps).
func mapTextToParent(ev *native.Evaluator, q string, ids []int64) []int64 {
	items, err := ev.EvalString(q)
	if err != nil {
		return ids
	}
	seen := map[int64]bool{}
	var out []int64
	for _, it := range items {
		id := it.Node.ID
		if !it.IsAttr() && it.Node.Kind == xmltree.Text {
			id = it.Node.Parent.ID
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func TestPaperTable3Shapes(t *testing.T) {
	tr, _, _ := setup(t)

	// Table 3 (1): '/A[@x=3]/B/C//F' — relations A and F only, joined
	// with paths for F... with schema marking F is U-P and its unique
	// path matches, so even that join is omitted.
	trans, err := tr.Translate("/A[@x=3]/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 1 {
		t.Errorf("selects = %d", trans.Selects)
	}
	if trans.Joins != 2 { // A, F — no paths join thanks to U-P marking
		t.Errorf("joins = %d, SQL: %s", trans.Joins, trans.SQL)
	}
	if !strings.Contains(trans.SQL, "BETWEEN A.dewey_pos AND A.dewey_pos || X'FF'") {
		t.Errorf("missing Dewey descendant join: %s", trans.SQL)
	}
	if !strings.Contains(trans.SQL, "A.x = 3") {
		t.Errorf("missing attribute restriction: %s", trans.SQL)
	}

	// Without the Section 4.5 optimization the F relation joins paths
	// and filters by the Table 1 regex.
	opts := DefaultOptions()
	opts.PathFilterOmission = false
	tr2 := New(paperSchema(t), &opts)
	trans2, err := tr2.Translate("/A[@x=3]/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans2.SQL, "REGEXP_LIKE(F_paths.path, '^/A/B/C/(.+/)?F$')") {
		t.Errorf("expected path regex filter: %s", trans2.SQL)
	}

	// Table 3 (2): '/A[@x=3]/B' — FK join, no Dewey comparison.
	trans, err = tr.Translate("/A[@x=3]/B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "B.par = A.id") {
		t.Errorf("expected FK join: %s", trans.SQL)
	}
	if strings.Contains(trans.SQL, "BETWEEN") {
		t.Errorf("unexpected Dewey join for child step: %s", trans.SQL)
	}

	// FK join disabled (ablation): the same query uses Dewey.
	opts = DefaultOptions()
	opts.FKChildParent = false
	tr3 := New(paperSchema(t), &opts)
	trans3, err := tr3.Translate("/A[@x=3]/B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans3.SQL, "BETWEEN") {
		t.Errorf("expected Dewey join with FK disabled: %s", trans3.SQL)
	}
}

func TestBackwardPPFTranslation(t *testing.T) {
	tr, _, _ := setup(t)
	// Table 3 (3) shape: '//F/parent::E/ancestor::B'.
	trans, err := tr.Translate("//F/parent::E/ancestor::B")
	if err != nil {
		t.Fatal(err)
	}
	// F's path must match the backward regex (B is F-P/U-P but F's own
	// relation carries the filter since the backward pattern constrains
	// F's path). With marking, F is U-P and '/A/B/C/E/F' matches
	// '^.*/B/(.+/)?E/F$', so the filter is omitted entirely.
	if trans.Joins != 2 { // F, B
		t.Errorf("joins = %d, SQL: %s", trans.Joins, trans.SQL)
	}
	if !strings.Contains(trans.SQL, "F.dewey_pos BETWEEN B.dewey_pos AND B.dewey_pos || X'FF'") {
		t.Errorf("missing ancestor Dewey join: %s", trans.SQL)
	}
}

func TestHorizontalTranslation(t *testing.T) {
	tr, _, _ := setup(t)
	trans, err := tr.Translate("/A/B/C/following-sibling::G")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "G.dewey_pos > C.dewey_pos") || !strings.Contains(trans.SQL, "G.par = C.par") {
		t.Errorf("following-sibling condition wrong: %s", trans.SQL)
	}
	trans, err = tr.Translate("//D/following::F")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "F.dewey_pos > D.dewey_pos || X'FF'") {
		t.Errorf("following condition wrong: %s", trans.SQL)
	}
}

func TestSQLSplitting(t *testing.T) {
	tr, _, _ := setup(t)
	// '/A/B/*' resolves to C and G: two UNION branches.
	trans, err := tr.Translate("/A/B/*")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 2 {
		t.Errorf("selects = %d, SQL: %s", trans.Selects, trans.SQL)
	}
	// Predicate ambiguity does NOT split: '/A/B[C/*]' keeps one select
	// with OR-ed EXISTS (D and E).
	trans, err = tr.Translate("/A/B[C/*]")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 1 {
		t.Errorf("selects = %d (predicates must not split), SQL: %s", trans.Selects, trans.SQL)
	}
	if got := strings.Count(trans.SQL, "EXISTS"); got != 2 {
		t.Errorf("EXISTS count = %d, SQL: %s", got, trans.SQL)
	}
}

func TestBackwardSimplePredicateUsesPathFilter(t *testing.T) {
	tr, _, _ := setup(t)
	// Table 5 (2) shape: predicates of backward simple paths fold into
	// path regexes, not structural joins.
	trans, err := tr.Translate("//F[parent::E or ancestor::G]")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(trans.SQL, "EXISTS") {
		t.Errorf("backward simple predicates must not use EXISTS: %s", trans.SQL)
	}
	// parent::E statically matches F's unique path; ancestor::G
	// statically fails; so the whole predicate folds away.
	if strings.Contains(trans.SQL, "REGEXP_LIKE") {
		t.Errorf("marking should have resolved the predicate statically: %s", trans.SQL)
	}

	// On an I-P relation the filter must materialize.
	trans, err = tr.Translate("//G[ancestor::G]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trans.SQL, "REGEXP_LIKE(G_paths.path") {
		t.Errorf("expected path regex for I-P relation: %s", trans.SQL)
	}
}

func TestStaticallyEmptyQueries(t *testing.T) {
	tr, st, _ := setup(t)
	for _, q := range []string{
		"/A/F",         // F is not a child of A
		"/B",           // B is not a document element
		"//Z",          // unknown element
		"//F[@zzz]",    // F has no such attribute
		"/A/B/C/D[@y]", // D has x only
	} {
		trans, err := tr.Translate(q)
		if err != nil {
			t.Fatalf("Translate(%q): %v", q, err)
		}
		res, err := st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%q should be empty, got %d rows", q, len(res.Rows))
		}
	}
}

func TestEndToEndAgainstOracle(t *testing.T) {
	tr, st, ev := setup(t)
	queries := []string{
		"/A",
		"/A/B",
		"/A/B/C",
		"/A/B/C/D",
		"//F",
		"/A//F",
		"//G",
		"//G//G",
		"/A/*",
		"/A/B/*",
		"//C/*/F",
		"/descendant-or-self::G",
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
		"/A/B[C and (D or G)]",
		"/A/B[C/D or C/E]",
		"//F/parent::E",
		"//F/ancestor::B",
		"//F/parent::E/ancestor::B",
		"//D/parent::C/parent::B",
		"//F/ancestor-or-self::F",
		"//G/ancestor::G",
		"/A/B/C/following-sibling::G",
		"/A/B/C/following-sibling::C",
		"//G/preceding-sibling::C",
		"//D/following::F",
		"//F/preceding::D",
		"//F[parent::E]",
		"//*[parent::E]",
		"//G[ancestor::G]",
		"//F[parent::E or ancestor::G]",
		"//D[parent::*/parent::B]",
		"/A/B[C/*]",
		"/A/B/C/D/text()",
		"/A/@x",
		"//D[@x]",
		"//D[@x='4']",
		"//D[@x=4]",
		"//E[count(F)=2]",
		"//E[count(F)=3]",
		"/A/B/C[2]",
		"/A/B/C[position()=1]",
		"//F[. * 2 = 4]",
		"//F[. >= 2 and . <= 3]",
		"//C[E/F > 5]",
		"//E[F = F]",
		"//D[. != /A/B/C/E/F]",
		"/A/B/C | /A/B/G",
		"//D | //F",
		"/A/B[./C]",
		"//B[G]",
		"//B[F=2]",
	}
	for _, q := range queries {
		check(t, tr, st, ev, q)
	}
}

func TestEndToEndWithOptimizationsOff(t *testing.T) {
	// The same queries must stay correct with every optimization off.
	s := paperSchema(t)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	opts := Options{PathFilterOmission: false, FKChildParent: false}
	tr := New(s, &opts)
	ev := native.New(doc)
	for _, q := range []string{
		"/A/B/C", "//F", "/A[@x=3]/B/C//F", "//F/parent::E/ancestor::B",
		"/A/B/*", "/A/B[C/*]", "//F[parent::E or ancestor::G]", "//G//G",
		"/A/B/C/following-sibling::G", "//D/following::F",
	} {
		check(t, tr, st, ev, q)
	}
}

func TestUnsupportedConstructs(t *testing.T) {
	tr, _, _ := setup(t)
	for _, q := range []string{
		"//F[last()]",       // last() needs context size
		"//F[position()=1]", // positional on non-child step
		"/A/B/*[1]",         // positional on wildcard
		"//F[. = last()]",   // last() in comparison
	} {
		if _, err := tr.Translate(q); err == nil {
			t.Errorf("Translate(%q) should fail", q)
		}
	}
}

func TestTranslateUnionShape(t *testing.T) {
	tr, _, _ := setup(t)
	trans, err := tr.Translate("/A/B/C | /A/B/G")
	if err != nil {
		t.Fatal(err)
	}
	if trans.Selects != 2 {
		t.Errorf("selects = %d", trans.Selects)
	}
	if !strings.Contains(trans.SQL, "UNION") {
		t.Errorf("expected UNION: %s", trans.SQL)
	}
	if !strings.HasSuffix(trans.SQL, "ORDER BY dewey_pos") {
		t.Errorf("expected document-order sort: %s", trans.SQL)
	}
}

func TestRegexTable1(t *testing.T) {
	// Reproduce Table 1's fragment-to-regex mapping shapes.
	mk := func(q string) []*xpath.Step {
		p, err := xpath.ParsePath(q)
		if err != nil {
			t.Fatal(err)
		}
		steps, _, err := normalizeSteps(p.Steps)
		if err != nil {
			t.Fatal(err)
		}
		return steps
	}
	cases := []struct {
		steps    []*xpath.Step
		anchored bool
		want     string
	}{
		{mk("//B/C"), true, "^/(.+/)?B/C$"},
		{mk("/A/B//F"), true, "^/A/B/(.+/)?F$"},
		{mk("//C/*/F"), true, "^/(.+/)?C/[^/]+/F$"},
		{mk("/A/B/C"), true, "^/A/B/C$"},
	}
	for _, c := range cases {
		got, err := forwardRegex(c.steps, c.anchored, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("forwardRegex = %q, want %q", got, c.want)
		}
	}
	// Backward: Table 1 row 4 '/parent::F/ancestor::B/parent::A'
	// constrains the context's path (head name pattern 'X').
	p, _ := xpath.ParsePath("/parent::F/ancestor::B/parent::A")
	steps, _, err := normalizeSteps(p.Steps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := backwardRegex(steps, "X")
	if err != nil {
		t.Fatal(err)
	}
	if got != "^.*/A/B/(.+/)?F/X$" {
		t.Errorf("backwardRegex = %q", got)
	}
}

func TestPPFSplitting(t *testing.T) {
	split := func(q string) []*ppf {
		p, err := xpath.ParsePath(q)
		if err != nil {
			t.Fatal(err)
		}
		frags, _, err := splitPPFs(p.Steps)
		if err != nil {
			t.Fatal(err)
		}
		return frags
	}
	// '/A/B/C//F' is one forward PPF.
	if frags := split("/A/B/C//F"); len(frags) != 1 || frags[0].kind != ppfForward || len(frags[0].steps) != 4 {
		t.Errorf("unexpected split of forward path: %d frags", len(frags))
	}
	// A predicate on an intermediate step closes the fragment.
	if frags := split("/A[@x=3]/B/C//F"); len(frags) != 2 {
		t.Errorf("predicate must close the PPF: %d frags", len(frags))
	}
	// Horizontal steps are single-step PPFs.
	if frags := split("/A/B/following-sibling::B/C"); len(frags) != 3 ||
		frags[1].kind != ppfHorizontal {
		t.Errorf("horizontal split wrong")
	}
	// Backward run groups.
	if frags := split("//F/parent::E/ancestor::B"); len(frags) != 2 || frags[1].kind != ppfBackward || len(frags[1].steps) != 2 {
		t.Errorf("backward split wrong")
	}
}
