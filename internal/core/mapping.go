package core

import (
	"fmt"

	"repro/internal/pathre"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xpath"
)

// mapping is what the PPF translator needs to know about a relational
// mapping of XML: where an element's rows live and how its values are
// reached. Everything else — Algorithm 1, the Table 2 joins, the
// paths-join memo and the predicate translation — is shared, so the
// Section 5.1 comparison runs the same PPF code over both mappings.
// A schema node is the unit of SQL splitting; the Edge-like mapping,
// which keeps every element in one relation, binds the nil node.
type mapping interface {
	// candidates resolves a fragment's prominent step to the nodes it
	// may bind, given the context nodes (fromRoot: the document root
	// is the context). Each combination of candidates along a chain
	// is one SQL-splitting branch.
	candidates(f *ppf, ctx []*schema.Node, fromRoot bool) []*schema.Node
	// relation returns the relation holding node's elements, a fresh
	// alias for it, and the name pattern of the bound element's own
	// path segment (step is the prominent step that reached it).
	relation(b *builder, node *schema.Node, step *xpath.Step) (table, alias, seg string)
	// omitFilter decides a path filter statically when the mapping
	// can prove it redundant (condTrue) or unsatisfiable (condFalse);
	// ok=false leaves the filter to SQL.
	omitFilter(node *schema.Node, pattern string) (cond sqlCond, ok bool, err error)
	// nameTest returns the path pattern restricting a relation to a
	// step's node test (Algorithm 1 lines 6-7), or "" when the
	// relation already implies it.
	nameTest(step *xpath.Step) string
	// mayRecurse reports whether an element of node's relation may
	// have an ancestor in the same relation. Dewey ranges alone are
	// then inexact, and structural joins pin the fragment boundary.
	mayRecurse(node *schema.Node) bool
	// hasText reports whether node's elements may carry text.
	hasText(node *schema.Node) bool
	// attrTest restricts the element bound to owner by its attribute
	// name: cmp(value) when cmp is non-nil, existence otherwise.
	attrTest(b *builder, owner string, node *schema.Node, name string, cmp func(sqlast.Expr) sqlast.Expr) sqlCond
	// attrValue returns the scalar value of the owner element's
	// attribute name; ok=false when the relation cannot hold it.
	attrValue(b *builder, owner string, node *schema.Node, name string) (v sqlast.Expr, ok bool)
	// nameCond restricts alias's rows to step's name test through a
	// column (nil when the relation implies it); position() counts the
	// siblings it admits.
	nameCond(alias string, step *xpath.Step) sqlast.Expr
}

// schemaMapping is the schema-aware mapping of Section 3: one
// relation per schema node, text and attributes inlined as columns,
// §4.5 marking to omit path filters.
type schemaMapping struct{ s *schema.Schema }

func (m schemaMapping) candidates(f *ppf, ctx []*schema.Node, fromRoot bool) []*schema.Node {
	switch f.kind {
	case ppfForward, ppfBackward:
		steps := make([]schema.Step, len(f.steps))
		for i, s := range f.steps {
			steps[i] = schema.Step{Axis: schemaAxis(s.Axis), Name: s.Name}
			if s.Wildcard() || s.Test != xpath.NameTest {
				steps[i].Name = ""
			}
		}
		if fromRoot {
			return m.s.Resolve(nil, steps)
		}
		return m.s.Resolve(ctx, steps)
	default: // horizontal
		s := f.steps[0]
		name := s.Name
		if s.Wildcard() || s.Test != xpath.NameTest {
			name = ""
		}
		switch s.Axis {
		case xpath.FollowingSibling, xpath.PrecedingSibling:
			return m.s.Resolve(ctx, []schema.Step{{Axis: schema.Parent}, {Axis: schema.Child, Name: name}})
		default: // following, preceding
			return m.s.Resolve(ctx, []schema.Step{{Axis: schema.AnyByName, Name: name}})
		}
	}
}

func schemaAxis(a xpath.Axis) schema.StepAxis {
	switch a {
	case xpath.Child:
		return schema.Child
	case xpath.Descendant:
		return schema.Descendant
	case xpath.DescendantOrSelf:
		return schema.DescendantOrSelf
	case xpath.Parent:
		return schema.Parent
	case xpath.Ancestor:
		return schema.Ancestor
	case xpath.AncestorOrSelf:
		return schema.AncestorOrSelf
	default:
		return schema.AnyByName
	}
}

func (schemaMapping) relation(b *builder, node *schema.Node, _ *xpath.Step) (string, string, string) {
	rel := shred.RelName(node.Name)
	return rel, b.newAlias(rel), regexQuote(node.Name)
}

// omitFilter delegates the §4.5 decision to schema.JustifyOmission
// (the single source of truth plancheck audits) and reports it
// through the omission trace.
func (schemaMapping) omitFilter(node *schema.Node, pattern string) (sqlCond, bool, error) {
	matches := func(string) bool { return false } // I-P never consults it
	if node.Mark != schema.InfinitePaths {
		re, err := pathre.Compile(pattern)
		if err != nil {
			return sqlCond{}, false, fmt.Errorf("bad path pattern %q: %w", pattern, err)
		}
		matches = re.MatchString
	}
	decision, ev := node.JustifyOmission(matches)
	traceOmission(node, pattern, decision, ev)
	switch decision {
	case schema.OmitFilter:
		return condTrue, true, nil
	case schema.EmptyResult:
		return condFalse, true, nil
	}
	return sqlCond{}, false, nil
}

// nameTest: the relation name already pins the node test.
func (schemaMapping) nameTest(*xpath.Step) string { return "" }

func (schemaMapping) mayRecurse(node *schema.Node) bool { return node.Mark == schema.InfinitePaths }

func (schemaMapping) hasText(node *schema.Node) bool { return node.HasText }

func (m schemaMapping) attrTest(b *builder, owner string, node *schema.Node, name string, cmp func(sqlast.Expr) sqlast.Expr) sqlCond {
	v, ok := m.attrValue(b, owner, node, name)
	switch {
	case !ok:
		return condFalse
	case cmp == nil:
		return dyn(&sqlast.IsNull{X: v, Negate: true})
	}
	return dyn(cmp(v))
}

func (schemaMapping) attrValue(_ *builder, owner string, node *schema.Node, name string) (sqlast.Expr, bool) {
	if !node.HasAttr(name) {
		return nil, false
	}
	return sqlast.C(owner, shred.AttrCol(name)), true
}

func (schemaMapping) nameCond(string, *xpath.Step) sqlast.Expr { return nil }

// edgeMapping is the schema-oblivious Edge-like mapping of the
// Section 5.1 comparison: one central element relation, attributes in
// a separate relation, no schema marking.
type edgeMapping struct{}

// candidates: every element lives in the one edge relation.
func (edgeMapping) candidates(*ppf, []*schema.Node, bool) []*schema.Node {
	return []*schema.Node{nil}
}

func (edgeMapping) relation(b *builder, _ *schema.Node, step *xpath.Step) (string, string, string) {
	return shred.EdgeTable, b.numbered("e"), namePat(step)
}

// omitFilter: without a schema only patterns matching every path are
// redundant.
func (edgeMapping) omitFilter(_ *schema.Node, pattern string) (sqlCond, bool, error) {
	switch pattern {
	case "^.*$", "^.*[^/]+$", "^.*/[^/]+$":
		return condTrue, true, nil
	}
	return sqlCond{}, false, nil
}

// nameTest filters by path suffix, skipped for wildcards.
func (edgeMapping) nameTest(step *xpath.Step) string {
	if step.Wildcard() || step.Test != xpath.NameTest {
		return ""
	}
	return "^.*/" + regexQuote(step.Name) + "$"
}

// mayRecurse: with no recursion knowledge every join pins the
// fragment boundary.
func (edgeMapping) mayRecurse(*schema.Node) bool { return true }

func (edgeMapping) hasText(*schema.Node) bool { return true }

func (m edgeMapping) attrTest(b *builder, owner string, _ *schema.Node, name string, cmp func(sqlast.Expr) sqlast.Expr) sqlCond {
	sub, a := m.attrRows(b, owner, name)
	sub.Cols = []sqlast.SelectCol{{Expr: &sqlast.NullLit{}}}
	if cmp != nil {
		sub.AddConjunct(cmp(sqlast.C(a, shred.ColValue)))
	}
	return dyn(&sqlast.Exists{Select: sub})
}

func (m edgeMapping) attrValue(b *builder, owner string, _ *schema.Node, name string) (sqlast.Expr, bool) {
	sub, a := m.attrRows(b, owner, name)
	sub.Cols = []sqlast.SelectCol{{Expr: sqlast.C(a, shred.ColValue)}}
	return &sqlast.Subquery{Select: sub}, true
}

// attrRows starts a select over the owner's attribute rows named
// name, returning it (without columns) and its attr alias.
func (edgeMapping) attrRows(b *builder, owner, name string) (*sqlast.Select, string) {
	a := b.numbered("at")
	sub := &sqlast.Select{From: []sqlast.TableRef{{Table: shred.AttrTable, Alias: a}}}
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColOwner), sqlast.C(owner, shred.ColID)))
	sub.AddConjunct(sqlast.Eq(sqlast.C(a, shred.ColAttrName), sqlast.Str(name)))
	return sub, a
}

func (edgeMapping) nameCond(alias string, step *xpath.Step) sqlast.Expr {
	return sqlast.Eq(sqlast.C(alias, shred.ColName), sqlast.Str(step.Name))
}
