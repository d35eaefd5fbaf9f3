package engine

import (
	"fmt"
	"sort"

	"repro/internal/sqlast"
)

// The plan-shape surface decompiles a compiled statement back into an
// exported, sqlast-level description of what the planner and the
// physical lowering actually produced: the chosen join order, the
// access path of every step with its key expressions, the placement
// of every residual conjunct, and the lowered operator pipeline. The
// plancheck certificate checker consumes this to prove the compiled
// plan equivalent to the statement it came from. The description is
// rebuilt from the compiled artifacts themselves (cexpr trees, access
// structs, phys nodes) — never from planner bookkeeping strings — so
// a planner bug cannot hide behind its own explanation.

// Subplan marker function names: correlated subqueries inside shape
// expressions are replaced by pseudo-calls carrying the index of the
// corresponding SubplanShape. The planner rejects unknown function
// names, so no user statement can collide with these.
const (
	MarkerExists    = "EXISTS_SUBPLAN"
	MarkerNotExists = "NOT_EXISTS_SUBPLAN"
	MarkerScalar    = "SCALAR_SUBPLAN"
)

// ExprShape is one decompiled expression: the sqlast tree with every
// column reference qualified by its resolved alias, plus the set of
// aliases the expression depends on (including aliases of enclosing
// selects, for correlated subplan markers).
type ExprShape struct {
	Expr sqlast.Expr
	Refs []string // sorted, deduplicated
}

// Text renders the expression ("" for an absent optional expression).
func (e ExprShape) Text() string {
	if e.Expr == nil {
		return ""
	}
	return e.Expr.String()
}

// OrderShape is one ORDER BY key of the compiled plan.
type OrderShape struct {
	Key  ExprShape
	Desc bool
}

// AccessShape describes the access path chosen for one join step,
// including the index metadata that must justify it.
type AccessShape struct {
	// Kind is one of "full-scan", "index-eq", "hash-eq", "fat-hash",
	// "index-prefixes", "index-range".
	Kind string
	// Index and IndexCols identify the index used (empty for scans and
	// hash joins); IndexCols are the index's column names in key order.
	Index     string
	IndexCols []string
	// Col is the accessed column's name (leading index column, or the
	// hash-join column).
	Col string
	// Keys are the index-eq key expressions, one per leading column.
	Keys []ExprShape
	// Key is the hash-join probe key or the index-prefixes probe value.
	Key ExprShape
	// Lo/Hi are the index-range bounds (absent => zero ExprShape).
	Lo, Hi   ExprShape
	LoStrict bool
	HiStrict bool
}

// OmittedShape is one residual conjunct the planner dropped because
// the pinned synopsis proves it true for every row of the step's
// table. The evidence fields pin the exact synopsis facts the decision
// used; plancheck re-derives the proof from them (and re-checks them
// against the table's synopsis) rather than trusting Reason.
type OmittedShape struct {
	Pred ExprShape
	// Reason is "not-null", "int-range" or "empty-table".
	Reason string
	// Rows/Nulls/Min/Max are the synopsis facts claimed as evidence:
	// table row count, the column's null count, and (for "int-range")
	// the column's exact integer min/max.
	Rows, Nulls int64
	Min, Max    int64
}

// StepShape is one join step: table binding, access path, residual
// filters, and the planner's cardinality estimate with provenance.
type StepShape struct {
	Alias   string
	Table   string
	Access  AccessShape
	Filters []ExprShape
	// EstRows is the estimated rows this step yields per binding of the
	// earlier steps after residual filters; EstSource records where the
	// number came from ("synopsis", "default" or "override").
	EstRows   float64
	EstSource string
	// Omitted lists filters proven redundant and dropped (never
	// executed); plancheck adds them back into the predicate multiset
	// and re-justifies each omission from its evidence.
	Omitted []OmittedShape
}

// SubplanShape is one correlated subquery of a select, referenced from
// expressions by marker index.
type SubplanShape struct {
	// Kind is "exists", "not-exists", "scalar" or "count".
	Kind   string
	Select *SelectShape
}

// SelectShape is the decompiled form of one compiled SELECT.
type SelectShape struct {
	Distinct   bool
	CountStar  bool
	Cols       []ExprShape
	ColNames   []string
	PreFilters []ExprShape
	Steps      []StepShape
	OrderBy    []OrderShape
	Subplans   []*SubplanShape
	// Pipeline lists the lowered physical operators in execution order
	// as canonical tokens: "prefilter", "scan <alias>",
	// "filter <alias>", "project", "count", "distinct", "sort".
	Pipeline []string
	// FromOrder is the statement's FROM order before join reordering;
	// JoinMethod records how the binding order was chosen ("single",
	// "dp" or "greedy").
	FromOrder  []string
	JoinMethod string
	// FreeRefs are the aliases referenced but not bound by this select
	// (its correlation variables), sorted.
	FreeRefs []string
}

// UnionShape is the decompiled form of a compiled UNION.
type UnionShape struct {
	Branches  []*SelectShape
	Cols      []string
	OrderPos  []int
	OrderDesc []bool
	// Sort reports whether the lowering emitted a union-level sort
	// operator.
	Sort bool
}

// StmtShape is the decompiled form of a compiled statement; exactly
// one of Select/Union is set.
type StmtShape struct {
	SQL    string
	Select *SelectShape
	Union  *UnionShape
}

// PlanTrace is delivered to the plan-trace observer (and the plan
// verifier) once per fresh statement compilation.
type PlanTrace struct {
	// SQL is the plan-cache key (the canonical rendering of Stmt).
	SQL string
	// Stmt is the statement that was compiled.
	Stmt sqlast.Statement
	// Shape is the decompiled plan; nil when extraction failed.
	Shape *StmtShape
	// Err reports a shape-extraction failure ("" on success). An
	// extraction failure is itself a checkable defect: the compiled
	// plan contains something the decompiler cannot explain.
	Err string
}

// planTrace, when non-nil, observes every fresh compilation.
var planTrace func(PlanTrace)

// SetPlanTrace installs (or, with nil, removes) the compilation
// observer. Like core.SetPatternTrace it is not safe for use
// concurrently with statement execution; the intended caller is
// plancheck's single-threaded sweep.
func SetPlanTrace(fn func(PlanTrace)) { planTrace = fn }

// planVerifier, when non-nil, is consulted by executions that request
// ExecOptions.VerifyPlan.
var planVerifier func(PlanTrace) error

// SetPlanVerifier installs (or, with nil, removes) the compile-time
// plan verifier used by ExecOptions.VerifyPlan. Install it before
// running statements; installation is not synchronized with running
// queries.
func SetPlanVerifier(fn func(PlanTrace) error) { planVerifier = fn }

// traceCompiled fires the plan trace for a fresh compilation.
func traceCompiled(st sqlast.Statement, key string, cs *compiledStmt) {
	if planTrace == nil {
		return
	}
	tr := PlanTrace{SQL: key, Stmt: st}
	sh, err := shapeStmt(cs, key)
	if err != nil {
		tr.Err = err.Error()
	} else {
		tr.Shape = sh
	}
	planTrace(tr)
}

// verifyCompiled runs the installed plan verifier against a compiled
// statement (cached or fresh), for ExecOptions.VerifyPlan.
func verifyCompiled(st sqlast.Statement, key string, cs *compiledStmt) error {
	if planVerifier == nil {
		return nil
	}
	sh, err := shapeStmt(cs, key)
	if err != nil {
		return fmt.Errorf("engine: plan shape extraction: %w", err)
	}
	if err := planVerifier(PlanTrace{SQL: key, Stmt: st, Shape: sh}); err != nil {
		return fmt.Errorf("engine: plan verification rejected %q: %w", key, err)
	}
	return nil
}

// PlanShape compiles the statement (through the plan cache) and
// returns the decompiled shape of the plan that would execute.
func (db *DB) PlanShape(st sqlast.Statement) (sh *StmtShape, err error) {
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return shapeStmt(cs, key)
}

// shapeStmt decompiles a compiled statement.
func shapeStmt(cs *compiledStmt, sql string) (*StmtShape, error) {
	out := &StmtShape{SQL: sql}
	if cs.sel != nil {
		sh, err := shapeSelect(cs.sel, nil)
		if err != nil {
			return nil, err
		}
		out.Select = sh
		return out, nil
	}
	u := cs.union
	us := &UnionShape{
		Cols:      append([]string(nil), u.cols...),
		OrderPos:  append([]int(nil), u.orderPos...),
		OrderDesc: append([]bool(nil), u.orderDesc...),
		Sort:      u.phys != nil && u.phys.sort != nil,
	}
	for _, br := range u.branches {
		sh, err := shapeSelect(br, nil)
		if err != nil {
			return nil, err
		}
		us.Branches = append(us.Branches, sh)
	}
	out.Union = us
	return out, nil
}

// shapeBuilder carries the alias environment (local + enclosing) while
// decompiling one select's expressions.
type shapeBuilder struct {
	tables map[string]*Table
	owner  *SelectShape
}

// shapeSelect decompiles one compiled select; outer maps the aliases
// of enclosing selects for correlated references (nil at top level).
func shapeSelect(p *selectPlan, outer map[string]*Table) (*SelectShape, error) {
	sh := &SelectShape{
		Distinct:   p.distinct,
		CountStar:  p.countStar,
		ColNames:   append([]string(nil), p.colNames...),
		FromOrder:  append([]string(nil), p.fromOrder...),
		JoinMethod: p.joinMethod,
		Pipeline:   p.pipeline(),
	}
	tables := make(map[string]*Table, len(outer)+len(p.steps))
	for k, v := range outer {
		tables[k] = v
	}
	for _, s := range p.steps {
		tables[s.name] = s.table
	}
	sb := &shapeBuilder{tables: tables, owner: sh}

	var all []ExprShape
	for _, ce := range p.preFilters {
		es, err := sb.expr(ce)
		if err != nil {
			return nil, err
		}
		sh.PreFilters = append(sh.PreFilters, es)
		all = append(all, es)
	}
	for _, s := range p.steps {
		ss := StepShape{Alias: s.name, Table: s.table.Name}
		as, err := s.access.shape(sb, s.table)
		if err != nil {
			return nil, err
		}
		ss.Access = as
		all = append(all, as.Keys...)
		all = append(all, as.Key, as.Lo, as.Hi)
		for _, f := range s.filters {
			es, err := sb.expr(f)
			if err != nil {
				return nil, err
			}
			ss.Filters = append(ss.Filters, es)
			all = append(all, es)
		}
		ss.EstRows = s.estRows
		ss.EstSource = s.estSource
		for _, of := range s.omitted {
			es, err := sb.expr(of.ce)
			if err != nil {
				return nil, err
			}
			ss.Omitted = append(ss.Omitted, OmittedShape{
				Pred: es, Reason: of.reason,
				Rows: of.rows, Nulls: of.nulls, Min: of.min, Max: of.max,
			})
			all = append(all, es)
		}
		sh.Steps = append(sh.Steps, ss)
	}
	for _, c := range p.cols {
		es, err := sb.expr(c)
		if err != nil {
			return nil, err
		}
		sh.Cols = append(sh.Cols, es)
		all = append(all, es)
	}
	for _, o := range p.orderBy {
		es, err := sb.expr(o.x)
		if err != nil {
			return nil, err
		}
		sh.OrderBy = append(sh.OrderBy, OrderShape{Key: es, Desc: o.desc})
		all = append(all, es)
	}

	local := make(map[string]bool, len(p.steps))
	for _, s := range p.steps {
		local[s.name] = true
	}
	free := map[string]bool{}
	for _, es := range all {
		for _, r := range es.Refs {
			if !local[r] {
				free[r] = true
			}
		}
	}
	sh.FreeRefs = sortedNames(free)
	return sh, nil
}

// expr decompiles one compiled expression into an ExprShape.
func (sb *shapeBuilder) expr(x cexpr) (ExprShape, error) {
	refs := map[string]bool{}
	e, err := sb.decompile(x, refs)
	if err != nil {
		return ExprShape{}, err
	}
	return ExprShape{Expr: e, Refs: sortedNames(refs)}, nil
}

// decompile rebuilds the sqlast form of a compiled expression,
// qualifying columns with their resolved aliases and replacing
// correlated subplans with marker pseudo-calls.
func (sb *shapeBuilder) decompile(x cexpr, refs map[string]bool) (sqlast.Expr, error) {
	switch c := x.(type) {
	case *ccol:
		t := sb.tables[c.table]
		if t == nil {
			return nil, fmt.Errorf("unbound alias %q", c.table)
		}
		if c.pos < 0 || c.pos >= len(t.Cols) {
			return nil, fmt.Errorf("alias %q has no column position %d", c.table, c.pos)
		}
		refs[c.table] = true
		return sqlast.C(c.table, t.Cols[c.pos].Name), nil
	case *clit:
		switch c.v.Kind {
		case KNull:
			return &sqlast.NullLit{}, nil
		case KInt:
			return sqlast.Int(c.v.I), nil
		case KFloat:
			return &sqlast.FloatLit{Value: c.v.F}, nil
		case KText:
			return sqlast.Str(c.v.S), nil
		case KBytes:
			return sqlast.Bytes(c.v.B), nil
		}
		return nil, fmt.Errorf("literal of kind %v", c.v.Kind)
	case *cbin:
		l, err := sb.decompile(c.l, refs)
		if err != nil {
			return nil, err
		}
		r, err := sb.decompile(c.r, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Binary{Op: c.op, L: l, R: r}, nil
	case *cnot:
		inner, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Not{X: inner}, nil
	case *cbetween:
		cx, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		lo, err := sb.decompile(c.lo, refs)
		if err != nil {
			return nil, err
		}
		hi, err := sb.decompile(c.hi, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.Between{X: cx, Lo: lo, Hi: hi}, nil
	case *cisnull:
		inner, err := sb.decompile(c.x, refs)
		if err != nil {
			return nil, err
		}
		return &sqlast.IsNull{X: inner, Negate: c.negate}, nil
	case *cfunc:
		f := &sqlast.Func{Name: c.name}
		for _, a := range c.args {
			ae, err := sb.decompile(a, refs)
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, ae)
		}
		return f, nil
	case *cexists:
		sub, err := shapeSelect(c.plan, sb.tables)
		if err != nil {
			return nil, err
		}
		kind, name := "exists", MarkerExists
		if c.negate {
			kind, name = "not-exists", MarkerNotExists
		}
		k := len(sb.owner.Subplans)
		sb.owner.Subplans = append(sb.owner.Subplans, &SubplanShape{Kind: kind, Select: sub})
		for _, r := range sub.FreeRefs {
			refs[r] = true
		}
		return &sqlast.Func{Name: name, Args: []sqlast.Expr{sqlast.Int(int64(k))}}, nil
	case *csubq:
		sub, err := shapeSelect(c.plan, sb.tables)
		if err != nil {
			return nil, err
		}
		kind := "scalar"
		if c.plan.countStar {
			kind = "count"
		}
		k := len(sb.owner.Subplans)
		sb.owner.Subplans = append(sb.owner.Subplans, &SubplanShape{Kind: kind, Select: sub})
		for _, r := range sub.FreeRefs {
			refs[r] = true
		}
		return &sqlast.Func{Name: MarkerScalar, Args: []sqlast.Expr{sqlast.Int(int64(k))}}, nil
	}
	return nil, fmt.Errorf("unknown compiled expression %T", x)
}

// indexColNames resolves an index's column positions to names.
func indexColNames(t *Table, ix *Index) []string {
	out := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		out[i] = t.Cols[c].Name
	}
	return out
}

func sortedNames(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
