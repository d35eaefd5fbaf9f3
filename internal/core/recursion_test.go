package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/native"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/staircase"
	"repro/internal/xmltree"
)

// recursiveFixture builds a random document over a deliberately nasty
// recursive schema: two mutually nesting elements plus leaves, so
// every relation is I-P and fragment-boundary alignment actually
// matters.
func recursiveFixture(t testing.TB, seed int64) (*schema.Schema, *xmltree.Document) {
	t.Helper()
	s, err := schema.NewBuilder("r").
		Element("r", "a", "b").
		Element("a", "a", "b", "leaf").
		Element("b", "a", "leaf").
		Attrs("a", "k").
		Text("leaf").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	bld := xmltree.NewBuilder()
	var gen func(name string, depth int)
	gen = func(name string, depth int) {
		attrs := []string{}
		if name == "a" && r.Intn(3) == 0 {
			attrs = []string{"k", fmt.Sprint(r.Intn(3))}
		}
		bld.Start(name, attrs...)
		if depth < 6 {
			for i, n := 0, r.Intn(3); i < n; i++ {
				switch {
				case name == "b":
					if r.Intn(2) == 0 {
						gen("a", depth+1)
					} else {
						bld.Elem("leaf", fmt.Sprint(r.Intn(4)))
					}
				default:
					switch r.Intn(3) {
					case 0:
						gen("a", depth+1)
					case 1:
						gen("b", depth+1)
					default:
						bld.Elem("leaf", fmt.Sprint(r.Intn(4)))
					}
				}
			}
		}
		bld.End()
	}
	bld.Start("r")
	for i := 0; i < 25; i++ {
		if r.Intn(2) == 0 {
			gen("a", 1)
		} else {
			gen("b", 1)
		}
	}
	bld.End()
	doc, err := bld.Doc()
	if err != nil {
		t.Fatal(err)
	}
	return s, doc
}

// recursiveQueries are chain-heavy queries whose exactness depends on
// the fragment-boundary constraints.
var recursiveQueries = []string{
	"//a/parent::a",
	"//a/parent::a/parent::a",
	"//a/parent::b/parent::a",
	"//leaf/parent::a/parent::b",
	"//a/parent::a/ancestor::b",
	"//b/ancestor::a/parent::a",
	"//b/ancestor::a/ancestor::a",
	"//a/ancestor::b/ancestor::a",
	"//leaf/ancestor::a/ancestor::a",
	"//a[@k]/a/a",
	"//a[@k=1]//b/a",
	"//a[leaf=2]/a",
	"//b/a[leaf]/parent::b/parent::a",
	"//a/a//leaf",
	"//a//a/leaf",
	"//a/b/a/b",
	"//r/a//b//a",
	"//a[not(leaf)]/parent::a",
	"//b[a/leaf=3]/ancestor::a",
	"//a/a/parent::a/a",
	"//a/following-sibling::a/a",
	"//b/preceding-sibling::a/parent::a",
	"//a/following::b/a",
	"//leaf/preceding::leaf",
	"//a[count(leaf)=2]/parent::a",
	"//a/a[2]",
	"//a/descendant-or-self::a",
	"//a/descendant-or-self::a/leaf",
	"//b/descendant-or-self::a/ancestor::b",
}

func TestRecursiveChainsSchemaAware(t *testing.T) {
	s, doc := recursiveFixture(t, 17)
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	tr := New(s, nil)
	ev := native.New(doc)
	for _, q := range recursiveQueries {
		check(t, tr, st, ev, q)
	}
}

func TestRecursiveChainsEdge(t *testing.T) {
	s, doc := recursiveFixture(t, 17)
	_ = s
	st, err := shred.NewEdge()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(doc); err != nil {
		t.Fatal(err)
	}
	tr := NewEdge(nil)
	ev := native.New(doc)
	for _, q := range recursiveQueries {
		checkEdge(t, tr, st, ev, q)
	}
}

// TestRecursiveFuzz generates random chain queries over many random
// recursive documents and cross-checks both translators.
func TestRecursiveFuzz(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 2
	}
	names := []string{"a", "b", "leaf", "*"}
	axes := []string{"", "", "", "parent::", "ancestor::", "descendant-or-self::"}
	for seed := int64(0); seed < int64(iters); seed++ {
		s, doc := recursiveFixture(t, 100+seed)
		aware, err := shred.NewSchemaAware(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aware.Load(doc); err != nil {
			t.Fatal(err)
		}
		edge, err := shred.NewEdge()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := edge.Load(doc); err != nil {
			t.Fatal(err)
		}
		accelStore, err := shred.NewAccel()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := accelStore.Load(doc); err != nil {
			t.Fatal(err)
		}
		stair := staircase.FromTree(doc)
		trA := New(s, nil)
		trE := NewEdge(nil)
		trX := accel.New()
		ev := native.New(doc)
		r := rand.New(rand.NewSource(seed * 31))
		for i := 0; i < 60; i++ {
			var b strings.Builder
			b.WriteString("//" + []string{"a", "b", "leaf"}[r.Intn(3)])
			for j, n := 0, 1+r.Intn(3); j < n; j++ {
				ax := axes[r.Intn(len(axes))]
				name := names[r.Intn(len(names))]
				if name == "leaf" && (ax == "parent::" || ax == "ancestor::") {
					name = "a" // leaves have no element children
				}
				if ax == "" && r.Intn(3) == 0 {
					b.WriteString("/")
				}
				b.WriteString("/" + ax + name)
			}
			q := b.String()
			// Oracle.
			ids, err := ev.ElementIDs(q)
			if err != nil {
				t.Fatalf("oracle %q: %v", q, err)
			}
			want := append([]int64{}, ids...)
			// Schema-aware.
			gotA := runQuery(t, trA, aware, q)
			if !reflect.DeepEqual(append([]int64{}, gotA...), want) && (len(gotA) != 0 || len(want) != 0) {
				trans, _ := trA.Translate(q)
				t.Fatalf("schema-aware disagrees on %q:\n got %v\nwant %v\nSQL: %s", q, gotA, want, trans.SQL)
			}
			// Edge.
			trans, err := trE.Translate(q)
			if err != nil {
				t.Fatalf("edge translate %q: %v", q, err)
			}
			res, err := edge.DB.RunWithOptions(trans.Stmt, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("edge run %q: %v", q, err)
			}
			gotE := make([]int64, 0, len(res.Rows))
			for _, row := range res.Rows {
				gotE = append(gotE, row[0].I)
			}
			if !reflect.DeepEqual(gotE, want) && (len(gotE) != 0 || len(want) != 0) {
				t.Fatalf("edge disagrees on %q:\n got %v\nwant %v\nSQL: %s", q, gotE, want, trans.SQL)
			}
			// XPath Accelerator.
			transX, err := trX.Translate(q)
			if err != nil {
				t.Fatalf("accel translate %q: %v", q, err)
			}
			resX, err := accelStore.DB.RunWithOptions(transX.Stmt, engine.ExecOptions{})
			if err != nil {
				t.Fatalf("accel run %q: %v", q, err)
			}
			gotX := make([]int64, 0, len(resX.Rows))
			for _, row := range resX.Rows {
				gotX = append(gotX, row[0].I)
			}
			if !reflect.DeepEqual(gotX, want) && (len(gotX) != 0 || len(want) != 0) {
				t.Fatalf("accel disagrees on %q:\n got %v\nwant %v\nSQL: %s", q, gotX, want, transX.SQL)
			}
			// Staircase.
			gotS, err := stair.EvalString(q)
			if err != nil {
				t.Fatalf("staircase %q: %v", q, err)
			}
			if !reflect.DeepEqual(gotS, want) && (len(gotS) != 0 || len(want) != 0) {
				t.Fatalf("staircase disagrees on %q:\n got %v\nwant %v", q, gotS, want)
			}
		}
	}
}
