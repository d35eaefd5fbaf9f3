package bench

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlast"
)

// TestRenderedSQLIsExecutableText proves the translations are real
// SQL text, not just ASTs: for every benchmark query and SQL-based
// system, render the statement, re-parse the text, execute both, and
// compare results.
func TestRenderedSQLIsExecutableText(t *testing.T) {
	x, err := NewXMark(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDBLP(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Workload{x, d} {
		for _, q := range w.Queries {
			for _, sys := range []System{PPF, EdgePPF, Accel} {
				stmt, err := w.Translate(sys, q)
				if err != nil {
					t.Fatalf("%s %s: %v", sys, q.ID, err)
				}
				text := sqlast.Render(stmt)
				reparsed, err := sqlast.Parse(text)
				if err != nil {
					t.Errorf("%s %s: rendered SQL does not parse: %v\n%s", sys, q.ID, err, text)
					continue
				}
				db := w.Aware.DB
				switch sys {
				case EdgePPF:
					db = w.Edge.DB
				case Accel:
					db = w.AccelS.DB
				}
				r1, err := db.RunWithOptions(stmt, engine.ExecOptions{})
				if err != nil {
					t.Fatalf("%s %s: %v", sys, q.ID, err)
				}
				r2, err := db.RunWithOptions(reparsed, engine.ExecOptions{})
				if err != nil {
					t.Errorf("%s %s: reparsed SQL fails to run: %v", sys, q.ID, err)
					continue
				}
				if len(r1.Rows) != len(r2.Rows) {
					t.Errorf("%s %s: AST and text runs differ (%d vs %d rows)",
						sys, q.ID, len(r1.Rows), len(r2.Rows))
					continue
				}
				for i := range r1.Rows {
					if !reflect.DeepEqual(r1.Rows[i][0], r2.Rows[i][0]) {
						t.Errorf("%s %s: row %d differs", sys, q.ID, i)
						break
					}
				}
			}
		}
	}
}
