package core

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

// TestMultiDocDeweyIsolation loads two structurally identical
// documents and checks that Dewey-based structural joins never match
// across documents — the regression the WithRoot re-rooting prevents.
func TestMultiDocDeweyIsolation(t *testing.T) {
	s := paperSchema(t)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}

	// Without re-rooting, every F would appear as a descendant of BOTH
	// A roots (their Dewey ranges coincide); with it, 2 per document.
	res, err := runSQL(st.DB,
		"SELECT A.id, F.id FROM A, F WHERE F.dewey_pos BETWEEN A.dewey_pos AND A.dewey_pos || X'FF' ORDER BY A.id, F.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("cross-document descendant pairs = %d, want 4", len(res.Rows))
	}
	// Each F must pair with exactly the A of its own document.
	perA := map[int64]int{}
	for _, r := range res.Rows {
		perA[r[0].I]++
	}
	for a, n := range perA {
		if n != 2 {
			t.Errorf("root %d has %d F descendants, want 2", a, n)
		}
	}

	// The PPF translation gives each document's results independently.
	tr := New(s, nil)
	trans, err := tr.Translate("/A/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 4 {
		t.Fatalf("query over two documents returned %d rows, want 4", len(out.Rows))
	}
}

func TestMultiDocEdgeIsolation(t *testing.T) {
	st, err := shred.NewEdge()
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	st.Load(doc)
	st.Load(doc)
	res, err := runSQL(st.DB,
		"SELECT COUNT(*) FROM edge a, edge d WHERE a.par IS NULL AND d.dewey_pos BETWEEN a.dewey_pos AND a.dewey_pos || X'FF'")
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 2 roots spans its own 12 elements: 24 pairs, not 48.
	if res.Rows[0][0].I != 24 {
		t.Fatalf("pairs = %v, want 24", res.Rows[0][0])
	}
}

// TestMultiDocDifferentShapes loads two different documents and
// checks a value query unions per-document results.
func TestMultiDocDifferentShapes(t *testing.T) {
	s := paperSchema(t)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := xmltree.ParseString(`<A x="3"><B><C><E><F>2</F></E></C></B></A>`)
	d2, _ := xmltree.ParseString(`<A x="4"><B><C><E><F>2</F><F>9</F></E></C></B></A>`)
	if _, err := st.Load(d1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(d2); err != nil {
		t.Fatal(err)
	}
	tr := New(s, nil)
	trans, err := tr.Translate("/A[@x=4]/B/C//F")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want only document 2's F elements", len(res.Rows))
	}
	trans, err = tr.Translate("//F[. = 2]")
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // one in each document
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

// runSQL parses a statement and runs it with default options.
func runSQL(db *engine.DB, sql string) (*engine.Result, error) {
	st, err := sqlast.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.RunWithOptions(st, engine.ExecOptions{})
}

// TestMultiDocHorizontalAxes loads two XMark documents into each
// mapping and checks that following:: and preceding:: stay inside the
// context node's document: every answer must be the union of the
// per-document oracle answers.
func TestMultiDocHorizontalAxes(t *testing.T) {
	docs := []*xmltree.Document{
		xmark.MustGenerate(xmark.Config{Scale: 0.005, Seed: 1}),
		xmark.MustGenerate(xmark.Config{Scale: 0.005, Seed: 2}),
	}
	aware, err := shred.NewSchemaAware(xmark.Schema())
	if err != nil {
		t.Fatal(err)
	}
	edge, err := shred.NewEdge()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int64{}
	queries := []string{
		"/site/regions/*/item[@id='item0']/following::item",
		"/site/regions/*/item[@id='item3']/preceding::item",
		"//open_auction[@id='open_auction1']/preceding::bidder",
	}
	// Both loaders number a document's elements after the previous
	// document's largest element id.
	var base int64
	for _, doc := range docs {
		var last int64
		if _, err := aware.Load(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := edge.Load(doc); err != nil {
			t.Fatal(err)
		}
		ev := native.New(doc)
		for _, q := range queries {
			ids, err := ev.ElementIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				t.Fatalf("%s selects nothing in a single document", q)
			}
			for _, id := range ids {
				want[q] = append(want[q], base+id)
			}
		}
		for _, n := range doc.Nodes() {
			if n.Kind == xmltree.Element && n.ID > last {
				last = n.ID
			}
		}
		base += last
	}
	for _, sys := range []struct {
		name      string
		translate func(string) (*Translation, error)
		db        *engine.DB
	}{
		{"schema", New(xmark.Schema(), nil).Translate, aware.DB},
		{"edge", NewEdge(nil).Translate, edge.DB},
	} {
		for _, q := range queries {
			trans, err := sys.translate(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.db.RunWithOptions(trans.Stmt, engine.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, 0, len(res.Rows))
			for _, r := range res.Rows {
				got = append(got, r[0].I)
			}
			if !reflect.DeepEqual(got, want[q]) {
				t.Errorf("%s %s: got %d ids, want %d (the per-document answers)", sys.name, q, len(got), len(want[q]))
			}
		}
	}
}
