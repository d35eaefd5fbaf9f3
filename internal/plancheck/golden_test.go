package plancheck

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dblp"
	"repro/internal/schema"
	"repro/internal/xmark"
)

var update = flag.Bool("update", false, "rewrite the golden translation dumps")

// goldenCorpus is one query corpus translated for the goldens, with
// the schema its schema-aware translation resolves against.
type goldenCorpus struct {
	name    string
	schema  *schema.Schema
	queries [][2]string // id, XPath
}

func goldenCorpora() []goldenCorpus {
	x := goldenCorpus{name: "xmark", schema: xmark.Schema()}
	for _, q := range xmark.Queries {
		x.queries = append(x.queries, [2]string{q.ID, q.XPath})
	}
	d := goldenCorpus{name: "dblp", schema: dblp.Schema()}
	for _, q := range dblp.Queries {
		d.queries = append(d.queries, [2]string{q.ID, q.XPath})
	}
	p := goldenCorpus{name: "paper", schema: paperSchema()}
	for i, q := range paperQueries {
		p.queries = append(p.queries, [2]string{fmt.Sprint("P", i+1), q})
	}
	return []goldenCorpus{d, x, p}
}

// paperSchema is the paper's Figure 1 schema: recursion under G,
// attributes on A and D, text on D and F.
func paperSchema() *schema.Schema {
	return schema.NewBuilder("A").
		Element("A", "B").
		Element("B", "C", "G").
		Element("C", "D", "E").
		Element("E", "F").
		Element("G", "G").
		Attrs("A", "x").
		Attrs("D", "x").
		Text("F", "D").
		MustBuild()
}

// paperQueries reach the predicate and axis translations the fig3 and
// XPathMark corpora leave out: positional, count(), join clauses,
// arithmetic, static folding, every axis.
var paperQueries = []string{
	"/A", "/A/B/C/D", "//F", "//G//G", "/A/*", "/A/B/*", "//C/*/F",
	"/descendant-or-self::G", "/A[@x=3]/B/C//F", "/A[@x]/B", "//F[. = 2]",
	"//F[text() = 2]", "/A/B[C/E/F=2]", "/A/B[not(C)]", "/A/B[C and (D or G)]",
	"/A/B[C/D or C/E]", "//F/parent::E/ancestor::B", "//D/parent::C/parent::B",
	"//F/ancestor-or-self::F", "//G/ancestor::G", "/A/B/C/following-sibling::G",
	"/A/B/C/following-sibling::C", "//G/preceding-sibling::C", "//D/following::F",
	"//F/preceding::D", "//*[parent::E]", "//G[ancestor::G]",
	"//F[parent::E or ancestor::G]", "//D[parent::*/parent::B]", "/A/B[C/*]",
	"/A/B/C/D/text()", "/A/@x", "//D[@x='4']", "//D[@x=4]", "//E[count(F)=2]",
	"//B[count(C) = 0]", "//E[2 = count(F)]", "//E[count(Z) >= 1]",
	"/A/B/C[2]", "/A/B/C[position()=1]", "/A/B/C[last()]",
	"/A/B/C[position() < last()]", "//F[. * 2 = 4]", "//F[. >= 2 and . <= 3]",
	"//C[E/F > 5]", "//E[F = F]", "//D[. != /A/B/C/E/F]", "/A/B/C | /A/B/G",
	"//D | //F", "/A/B[./C]", "//B[F=2]", "//F[2 != .]", "//D[4 >= @x]",
	"/A/B[2 >= 2]", "/A/B[2 > 2]", "/A/B[4 mod 3 = 1]", "//F[10 - . = 8]",
	"//C[D/@x != 5]", "/A/B[C[D] | G]", "/A/B[not(not(not(C)))]",
	"//C[D/text() = 4]", "//F[.]", "/A/B[C[E[F=2]]]", "//B[C[D]/D]",
	"//B[C/D != C/E/F]", "//E[F = /A/B/C/D]", "//C[. = D]", "//C[D = .]",
	"//D[@x = ../D]", "//C[D/@x = E/F]", "/A/B[1 = 1]", "/A/B['x']",
	"/A/B[2 > 3 or C]", "/A/B[C and 1 = 2]", "/A/B[1 = 2]", "/A/B[not(1 = 2)]",
	"//D[@x * 2 = 8]", "//D[text() + 1 = 5]", "//F[last()]", "/A/B/*[1]",
	"//F[C * D = 4]", "//F[count(C) = count(D)]", "/A/B[count(C/*) = 1]",
}

// renderBoth translates q under the schema-aware and the Edge mapping
// and returns each outcome as text: the rendered SQL, or the error.
func renderBoth(s *schema.Schema, q string) (aware, edge string) {
	render := func(tr *core.Translation, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return tr.SQL
	}
	return render(core.New(s, nil).Translate(q)), render(core.NewEdge(nil).Translate(q))
}

// TestTranslationGolden pins the full SQL text both mappings render
// for the fig3 DBLP (Table 7) and XPathMark corpora and for the
// Figure 1 schema's construct sweep (paperQueries). The schema-aware
// text is the engine's plan-cache key and what xrel.Query executes,
// so any change to it must be deliberate: rerun with -update and
// review the diff.
func TestTranslationGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCorpora() {
		for _, q := range c.queries {
			aware, edge := renderBoth(c.schema, q[1])
			fmt.Fprintf(&b, "== %s/%s %s\nschema: %s\nedge: %s\n", c.name, q[0], q[1], aware, edge)
		}
	}
	compareGolden(t, filepath.Join("testdata", "translate.golden"), b.String())
}

// TestMatrixTranslationGolden pins a digest of both mappings'
// translations of plancheck's seeded random matrix (the one
// `xvet -plancheck` checks: seed 1, 2500 queries per workload).
func TestMatrixTranslationGolden(t *testing.T) {
	const n, seed = 2500, 1
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return fmt.Sprintf("%x", sum[:6])
	}
	var b strings.Builder
	queries := map[string]string{}
	for _, c := range goldenCorpora() {
		gen := newQueryGen(c.schema, rand.New(rand.NewSource(seed)))
		for i := 0; i < n; i++ {
			q := gen.next()
			label := fmt.Sprintf("%s[%d]", c.name, i)
			queries[label] = q
			aware, edge := renderBoth(c.schema, q)
			fmt.Fprintf(&b, "%s %s %s\n", label, digest(aware), digest(edge))
		}
	}
	compareGolden(t, filepath.Join("testdata", "matrix.golden"), b.String(), func(line string) string {
		label, _, _ := strings.Cut(line, " ")
		return queries[label]
	})
}

// compareGolden compares got with the golden file (rewriting it under
// -update) and reports every differing line, annotated by describe
// when given.
func compareGolden(t *testing.T, path, got string, describe ...func(line string) string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		if shown++; shown > 20 {
			t.Errorf("%s: further differences omitted", path)
			break
		}
		note := ""
		for _, d := range describe {
			note = " (" + d(g) + ")"
		}
		t.Errorf("%s:%d%s\n want: %s\n  got: %s", path, i+1, note, w, g)
	}
}
