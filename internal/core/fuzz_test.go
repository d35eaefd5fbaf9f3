package core

import (
	"testing"

	"repro/internal/sqlast"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// FuzzTranslate throws arbitrary XPath at both mappings' translators.
// For any input the parser accepts, translation must not panic, and
// every SQL text it renders must parse back and re-render byte for
// byte (the rendering is the plan-cache key).
func FuzzTranslate(f *testing.F) {
	seeds := []string{
		"/A/B/C",
		"//G//G",
		"/A/B/*",
		"/A[@x=3]/B/C//F",
		"/A/B[C and (D or G)]",
		"//F/parent::E/ancestor::B",
		"//F/ancestor-or-self::F",
		"/A/B/C/following-sibling::G",
		"//D/following::F",
		"//F/preceding::D",
		"//D[parent::*/parent::B]",
		"/A/B/C/D/text()",
		"//E[count(F)=2]",
		"/A/B/C[last()]",
		"/A/B/C[position() < last()]",
		"//F[. * 2 = 4]",
		"//E[F = /A/B/C/D]",
		"//C[D/@x = D]",
		"/A/B[2 > 3 or C]",
		"/A/B/C | /A/B/G",
		"/site/regions/*/item[@id='item0']/following::item",
		"/site/open_auctions/open_auction[bidder/date = interval/start]",
		"//keyword/ancestor::listitem",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	translators := []*Translator{
		New(paperSchema(f), nil),
		New(xmark.Schema(), nil),
		NewEdge(nil),
	}
	f.Fuzz(func(t *testing.T, src string) {
		expr, err := xpath.Parse(src)
		if err != nil {
			return
		}
		for _, tr := range translators {
			trans, err := tr.TranslateExpr(expr)
			if err != nil {
				continue
			}
			st, err := sqlast.Parse(trans.SQL)
			if err != nil {
				t.Fatalf("%q: rendered SQL does not parse: %v\n%s", src, err, trans.SQL)
			}
			if again := sqlast.Render(st); again != trans.SQL {
				t.Fatalf("%q: SQL does not re-render identically:\n%s\n%s", src, trans.SQL, again)
			}
		}
	})
}
