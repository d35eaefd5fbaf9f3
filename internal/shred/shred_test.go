package shred

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/xmltree"
)

func paperSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.NewBuilder("A").
		Element("A", "B").
		Element("B", "C", "G").
		Element("C", "D", "E").
		Element("E", "F").
		Element("G", "G").
		Attrs("A", "x").
		Text("F", "D").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paperDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(
		`<A x="3"><B><C><D>4</D></C><C><E><F>2</F><F>7</F></E></C><G/></B><B><G><G/></G></B></A>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNamingHelpers(t *testing.T) {
	if RelName("open_auction") != "open_auction" {
		t.Error("plain name changed")
	}
	if RelName("paths") != "el_paths" {
		t.Error("reserved table name not prefixed")
	}
	if RelName("weird-name") != "weird_name" {
		t.Error("dash not sanitized")
	}
	if RelName("1abc") != "el_1abc" {
		t.Error("leading digit not prefixed")
	}
	if AttrCol("id") != "a_id" || AttrCol("text") != "a_text" {
		t.Error("reserved attr columns not prefixed")
	}
	if AttrCol("featured") != "featured" {
		t.Error("plain attr changed")
	}
}

func TestSchemaAwareLoad(t *testing.T) {
	st, err := NewSchemaAware(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	docID, err := st.Load(paperDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if docID != 1 {
		t.Fatalf("docID = %d", docID)
	}
	// Counts per relation.
	for rel, want := range map[string]int{"A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3} {
		tb := st.DB.Table(rel)
		if tb == nil || len(tb.Rows()) != want {
			t.Errorf("relation %s has %v rows, want %d", rel, tb, want)
		}
	}
	// Distinct paths (the document instantiates all 8 schema paths).
	if st.PathCount() != 8 {
		t.Errorf("path count = %d", st.PathCount())
	}
	// Descriptor values: F with text '2'.
	res, err := runSQL(st.DB, "SELECT F.id, F.par, F.text FROM F WHERE F.text = '2'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 8 || res.Rows[0][1].I != 7 {
		t.Fatalf("F rows = %v", res.Rows)
	}
	// Attribute column on A.
	res, err = runSQL(st.DB, "SELECT A.x, A.doc_id FROM A")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "3" || res.Rows[0][1].I != 1 {
		t.Fatalf("A row = %v", res.Rows)
	}
	// Paths relation joined by path_id.
	res, err = runSQL(st.DB, "SELECT p.path FROM F, paths p WHERE F.path_id = p.id AND F.id = 8")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "/A/B/C/E/F" {
		t.Fatalf("path = %v", res.Rows)
	}
}

func TestSchemaAwareRejectsInvalidDoc(t *testing.T) {
	st, err := NewSchemaAware(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := xmltree.ParseString(`<A><Z/></A>`)
	if _, err := st.Load(bad); err == nil {
		t.Fatal("invalid document should be rejected")
	}
}

func TestSchemaAwareMultiDocIDs(t *testing.T) {
	st, err := NewSchemaAware(paperSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	d2, err := st.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 2 {
		t.Fatalf("second doc id = %d", d2)
	}
	res, err := runSQL(st.DB, "SELECT A.id FROM A ORDER BY A.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I == res.Rows[1][0].I {
		t.Fatalf("A ids = %v", res.Rows)
	}
	// Paths are shared, not duplicated.
	if st.PathCount() != 8 {
		t.Errorf("path count after two loads = %d", st.PathCount())
	}
}

func TestEdgeLoad(t *testing.T) {
	st, err := NewEdge()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(paperDoc(t)); err != nil {
		t.Fatal(err)
	}
	if len(st.Edge.Rows()) != 12 {
		t.Fatalf("edge rows = %d", len(st.Edge.Rows()))
	}
	if len(st.Attr.Rows()) != 1 {
		t.Fatalf("attr rows = %d", len(st.Attr.Rows()))
	}
	if st.PathCount() != 8 {
		t.Errorf("path count = %d", st.PathCount())
	}
	res, err := runSQL(st.DB,
		"SELECT e.id FROM edge e, paths p WHERE e.path_id = p.id AND p.path = '/A/B/C/E/F' ORDER BY e.dewey_pos")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 8 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Attribute join.
	res, err = runSQL(st.DB, "SELECT a.value FROM edge e, attr a WHERE a.owner = e.id AND e.name = 'A' AND a.aname = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "3" {
		t.Fatalf("attr rows = %v", res.Rows)
	}
}

func TestAccelLoad(t *testing.T) {
	st, err := NewAccel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(paperDoc(t)); err != nil {
		t.Fatal(err)
	}
	if len(st.Accel.Rows()) != 12 {
		t.Fatalf("accel rows = %d", len(st.Accel.Rows()))
	}
	// Region containment: descendants of B(pre of node id 2) are those
	// with pre > and post < the B row.
	res, err := runSQL(st.DB,
		"SELECT d.id FROM accel v, accel d WHERE v.id = 2 AND d.pre > v.pre AND d.post < v.post ORDER BY d.pre")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 { // nodes 3..9
		t.Fatalf("descendants = %v", res.Rows)
	}
	if res.Rows[0][0].I != 3 || res.Rows[6][0].I != 12 {
		t.Fatalf("descendant ids = %v", res.Rows)
	}
	// pre order equals document order of elements.
	res, err = runSQL(st.DB, "SELECT a.id FROM accel a ORDER BY a.pre")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].I >= res.Rows[i][0].I {
			t.Fatalf("pre order not increasing in element ids at %d: %v", i, res.Rows)
		}
	}
}

func TestAccelMultiDoc(t *testing.T) {
	st, err := NewAccel()
	if err != nil {
		t.Fatal(err)
	}
	doc := paperDoc(t)
	st.Load(doc)
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	// Pre ranks must stay unique across documents.
	res, err := runSQL(st.DB, "SELECT COUNT(*) FROM accel")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 24 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = runSQL(st.DB, "SELECT DISTINCT a.pre FROM accel a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 {
		t.Fatalf("distinct pre = %d", len(res.Rows))
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
