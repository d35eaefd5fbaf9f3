package engine

import (
	"fmt"
	"strings"

	"repro/internal/sqlast"
)

// selectPlan is a compiled SELECT: an ordered sequence of table
// access steps with per-step residual filters, plus the compiled
// projection and ORDER BY keys.
type selectPlan struct {
	distinct   bool
	cols       []cexpr
	colNames   []string
	countStar  bool
	preFilters []cexpr // conjuncts that reference no local table
	steps      []*joinStep
	orderBy    []corder
	// fromOrder is the statement's FROM order before join reordering
	// and joinMethod how the binding order was chosen ("single", "dp"
	// or "greedy") — recorded for the exported plan shape
	// (plantrace.go) so the certificate checker can report the
	// reordering step it validated.
	fromOrder  []string
	joinMethod string
	// phys is the lowered physical operator pipeline (physplan.go),
	// set by lowerStmt for every plan reachable from a compiled
	// statement — including correlated subplans.
	phys *physSelect
	// src is the rendered source of a correlated subselect (empty for
	// top-level plans): the key adaptive re-planning uses to route a
	// subplan's observed cardinalities back to the same subselect on
	// the next compile. Rendered text is stable across join-order
	// changes, which reorder compilation but not the statement.
	src string
}

type corder struct {
	x    cexpr
	desc bool
	src  string // source text of the key expression, for Explain
}

// joinStep binds one FROM table using an access path, then applies
// residual filters.
type joinStep struct {
	name  string
	table *Table
	// st is the table state the plan was compiled against: the
	// statement's snapshot pin. Execution reads rows and builds hash
	// indexes through st, never through the live table, so a running
	// query is untouched by concurrent commits; the plan cache retires
	// the plan (plancache.go) once the live state moves on.
	st      *tableState
	access  accessPath
	filters []cexpr
	// filterSrc keeps the source text of filters for Explain.
	filterSrc []string
	// vec is the leading run of filters the executor evaluates as one
	// batched REGEXP_LIKE pass per row batch (vectorize.go); the
	// per-row residual loop skips filters[:len(vec)]. Derived metadata
	// only: filters itself is untouched, so the plan certificates
	// (plancheck) and EXPLAIN see the same predicate multiset.
	vec []vecFilter
	// estAccess/estRows are the planner's cardinality estimates for
	// this step — rows the access path yields per binding, and rows
	// surviving the residual filters — with estSource recording their
	// provenance (EstSynopsis/EstDefault/EstOverride, estimate.go).
	// They feed EXPLAIN's est_rows, the adaptive re-planning q-error
	// check, and plancheck's estimate-provenance obligation.
	estAccess float64
	estRows   float64
	estSource string
	// omitted holds single-table conjuncts the planner dropped because
	// the snapshot's synopsis proves them true for every row (§4.5-style
	// omission beyond schema proofs). Never executed; exported through
	// the plan shape so plancheck can re-justify each omission.
	omitted []omittedFilter
}

// accessPath determines which rows of a table are visited given the
// rows bound so far. It is both the planner's cost abstraction
// (rank/est) and the executor's scan-operator contract (enumerate,
// implemented per access kind in access.go).
type accessPath interface {
	describe() string
	// rank orders access kinds for tie-breaking (lower is better).
	rank() int
	// est estimates the rows this access yields per binding of the
	// already-bound tables — the planner's cost metric, evaluated
	// against the snapshot state the plan is compiled for.
	est(st *tableState) int
	// enumerate pushes the candidate row ids for the step under the
	// current bindings, in the executor's canonical order, batched
	// through sc.ids (or zero-copy sub-slices of index postings),
	// recording probes and governor charges against the scan's
	// OpStats.
	enumerate(ec *execCtx, e env, s *joinStep, st *OpStats, sc *batchScratch, yield batchYield) error
	// shape describes the access path for the exported plan shape
	// (plantrace.go), decompiling key expressions through sb;
	// implemented per access kind in access.go.
	shape(sb *shapeBuilder, t *Table) (AccessShape, error)
}

type fullScan struct{}

func (fullScan) describe() string       { return "full scan" }
func (fullScan) rank() int              { return 8 }
func (fullScan) est(st *tableState) int { return len(st.rows) }

// indexEq is a point lookup on an index whose leading columns are all
// bound by equality.
type indexEq struct {
	ix   *Index
	keys []cexpr // one per leading column
}

func (a *indexEq) describe() string { return "index lookup " + a.ix.Name }
func (a *indexEq) rank() int        { return 1 }
func (a *indexEq) est(st *tableState) int {
	if n := a.ix.Tree.Len(); n > 0 {
		return maxInt(1, a.ix.Tree.Pairs()/n)
	}
	return 1
}

// hashEq is an equality lookup through a transient hash index — the
// engine's hash join.
type hashEq struct {
	col int
	key cexpr
}

func (a *hashEq) describe() string { return "hash join" }
func (a *hashEq) rank() int        { return 2 }
func (a *hashEq) est(st *tableState) int {
	// Estimate with the largest bucket: skewed join columns (e.g. a
	// path id shared by half the relation) must not look selective.
	return maxInt(1, st.hashMaxBucket(a.col))
}

// indexPrefixes is the ancestor access path: for a condition
// 'X BETWEEN t.col AND t.col || X'FF” with X bound, the matching
// t.col values are exactly the byte prefixes of X, so the step does
// one index lookup per prefix length instead of a scan.
type indexPrefixes struct {
	ix *Index
	x  cexpr
}

func (a *indexPrefixes) describe() string { return "index prefix lookups " + a.ix.Name }
func (a *indexPrefixes) rank() int        { return 2 }
func (a *indexPrefixes) est(st *tableState) int {
	if len(st.rows) < 8 {
		return len(st.rows)
	}
	return 8
}

// fatHash wraps a hash join whose average bucket is large enough that
// it behaves like a scan; it ranks with full scans so the planner
// prefers genuinely selective paths.
type fatHash struct{ h *hashEq }

func (a *fatHash) describe() string       { return "hash join (low selectivity)" }
func (a *fatHash) rank() int              { return 8 }
func (a *fatHash) est(st *tableState) int { return a.h.est(st) }

// indexRange scans an index over a [lo, hi] interval computed from
// the bound rows. Either bound may be absent.
type indexRange struct {
	ix       *Index
	lo, hi   cexpr // nil when unbounded
	loStrict bool
	hiStrict bool
}

func (a *indexRange) describe() string {
	kind := "one-sided"
	if a.lo != nil && a.hi != nil {
		kind = "two-sided"
	}
	return "index range scan (" + kind + ") " + a.ix.Name
}
func (a *indexRange) rank() int {
	if a.lo != nil && a.hi != nil {
		return 3
	}
	return 5
}

func (a *indexRange) est(st *tableState) int {
	if a.lo != nil && a.hi != nil {
		return len(st.rows)/16 + 1
	}
	return len(st.rows)/4 + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// planner compiles statements against one database snapshot: every
// table resolution, cost estimate, and pinned joinStep state comes
// from snap, so a plan is internally consistent even when a writer
// commits mid-compile (the plan cache then simply retires it early).
type planner struct {
	db   *DB
	snap *dbSnap
	// touched records every table resolved while planning (including
	// tables of correlated subselects) so the plan cache can pin the
	// table states a cached plan depends on. Nil when the caller
	// doesn't need dependency tracking.
	touched map[*Table]bool
	// overrides maps FROM aliases of the select being planned to
	// observed per-binding cardinalities injected by adaptive
	// re-planning (plancache.go). It always holds the map of the
	// select currently being planned: planSelect swaps in the matching
	// subOverrides entry for each correlated subselect, whose aliases
	// could collide with the outer select's.
	overrides map[string]ovEst
	// subOverrides routes observed cardinalities to correlated
	// subselects, keyed by the subselect's rendered source text
	// (selectPlan.src).
	subOverrides map[string]map[string]ovEst
}

// conjunct is one ANDed term of a WHERE clause during planning.
type conjunct struct {
	expr     sqlast.Expr
	localRef map[string]bool // local FROM names it references
}

// planSelect compiles a SELECT. The outer scope carries tables of
// enclosing queries for correlated subselects.
func (p *planner) planSelect(sel *sqlast.Select, outer *scope) (*selectPlan, error) {
	// Observed-cardinality overrides are keyed by the FROM aliases of
	// the select being re-planned; a correlated subselect has its own
	// alias space, so the outer map must not leak into it — the
	// subselect gets its own map, routed by rendered source text.
	var subSrc string
	if outer != nil {
		subSrc = sqlast.Render(sel)
		saved := p.overrides
		p.overrides = p.subOverrides[subSrc]
		defer func() { p.overrides = saved }()
	}
	sc := newScope(outer)
	local := map[string]*Table{}
	var localOrder []string
	for _, ref := range sel.From {
		t := p.snap.table(ref.Table)
		if t == nil {
			return nil, fmt.Errorf("engine: unknown table %q", ref.Table)
		}
		if p.touched != nil {
			p.touched[t] = true
		}
		if err := sc.add(ref.Name(), t); err != nil {
			return nil, err
		}
		local[ref.Name()] = t
		localOrder = append(localOrder, ref.Name())
	}

	plan := &selectPlan{distinct: sel.Distinct, src: subSrc}

	// Projection.
	if len(sel.Cols) == 1 {
		if _, ok := sel.Cols[0].Expr.(*sqlast.CountStar); ok {
			plan.countStar = true
			plan.colNames = []string{"COUNT(*)"}
		}
	}
	if !plan.countStar {
		for _, c := range sel.Cols {
			ce, err := p.compile(c.Expr, sc)
			if err != nil {
				return nil, err
			}
			plan.cols = append(plan.cols, ce)
			name := c.Alias
			if name == "" {
				name = c.Expr.String()
			}
			plan.colNames = append(plan.colNames, name)
		}
	}

	// Flatten WHERE into conjuncts and find their local references.
	var conjuncts []*conjunct
	var flatten func(e sqlast.Expr)
	flatten = func(e sqlast.Expr) {
		if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conjuncts = append(conjuncts, &conjunct{expr: e, localRef: p.localRefs(e, local)})
	}
	if sel.Where != nil {
		flatten(sel.Where)
	}

	// §4.5-style filter omission beyond schema proofs: drop
	// single-table conjuncts the pinned synopsis proves true for every
	// row, before access-path and join-order selection see them (an
	// index probe for a tautological predicate would justify an access
	// path plancheck could no longer tie to a retained filter). Each
	// omission is recorded with its synopsis evidence on the step it
	// would have filtered.
	omittedBy := map[string][]omittedFilter{}
	for _, c := range conjuncts {
		if c.expr == nil || len(c.localRef) != 1 {
			continue
		}
		var name string
		for n := range c.localRef {
			name = n
		}
		t := local[name]
		if !refsOnlyTable(c.expr, name, t) {
			continue
		}
		of, ok := p.proveRedundant(c.expr, name, t, p.snap.stateOf(t), sc)
		if !ok {
			continue
		}
		ce, err := p.compile(c.expr, sc)
		if err != nil {
			continue
		}
		of.ce = ce
		of.src = c.expr.String()
		omittedBy[name] = append(omittedBy[name], of)
		c.expr = nil
	}

	// Join ordering: exhaustive dynamic programming over join orders
	// for small FROM lists (Selinger-style, cumulative-rows cost),
	// greedy fallback beyond that.
	plan.fromOrder = append([]string(nil), localOrder...)
	order, method := p.chooseJoinOrder(localOrder, local, conjuncts, sc)
	plan.joinMethod = method
	bound := map[string]bool{}
	for _, name := range order {
		access, _, accessSrc := p.bestAccess(name, local[name], conjuncts, bound, sc)
		atKey := boundKey(bound)
		bound[name] = true
		st := p.snap.stateOf(local[name])
		step := &joinStep{name: name, table: local[name], st: st, access: access}
		step.omitted = omittedBy[name]
		// Record the step's cardinality estimate and its provenance for
		// EXPLAIN, adaptive re-planning, and plancheck.
		accessEst, synAccess := p.accessEstimate(access, st)
		selOwn, synSel := p.tableSelectivity(name, local[name], st, conjuncts, accessSrc, sc)
		step.estAccess = accessEst
		step.estRows = accessEst * selOwn
		if ov, ok := p.overrides[name]; ok && !p.heuristicOnly() && ov.after == atKey {
			step.estRows = ov.rows
			if ov.access > 0 {
				step.estAccess = ov.access
			}
			step.estSource = EstOverride
		} else if synAccess || synSel {
			step.estSource = EstSynopsis
		} else {
			step.estSource = EstDefault
		}
		// Attach every not-yet-attached conjunct whose local references
		// are now fully bound.
		for _, c := range conjuncts {
			if c.expr == nil {
				continue
			}
			ready := true
			uses := false
			for ref := range c.localRef {
				if !bound[ref] {
					ready = false
					break
				}
				if ref == name {
					uses = true
				}
			}
			if !ready {
				continue
			}
			if len(c.localRef) == 0 || uses || len(plan.steps) == 0 {
				ce, err := p.compile(c.expr, sc)
				if err != nil {
					return nil, err
				}
				if len(c.localRef) == 0 {
					plan.preFilters = append(plan.preFilters, ce)
				} else {
					step.filters = append(step.filters, ce)
					step.filterSrc = append(step.filterSrc, c.expr.String())
				}
				c.expr = nil
			}
		}
		plan.steps = append(plan.steps, step)
	}
	// Any conjunct not attached yet (references only earlier tables but
	// was skipped because 'uses' was false) attaches to the last step.
	for _, c := range conjuncts {
		if c.expr == nil {
			continue
		}
		ce, err := p.compile(c.expr, sc)
		if err != nil {
			return nil, err
		}
		if len(plan.steps) == 0 {
			plan.preFilters = append(plan.preFilters, ce)
		} else {
			last := plan.steps[len(plan.steps)-1]
			last.filters = append(last.filters, ce)
			last.filterSrc = append(last.filterSrc, c.expr.String())
		}
		c.expr = nil
	}

	// ORDER BY.
	for _, k := range sel.OrderBy {
		ce, err := p.compile(k.Expr, sc)
		if err != nil {
			return nil, err
		}
		plan.orderBy = append(plan.orderBy, corder{x: ce, desc: k.Desc, src: k.Expr.String()})
	}
	return plan, nil
}

// localRefs returns the local FROM names an expression references.
// Unqualified columns resolve through the scope chain; only matches
// in the local table set count as local.
func (p *planner) localRefs(e sqlast.Expr, local map[string]*Table) map[string]bool {
	out := map[string]bool{}
	var walk func(e sqlast.Expr)
	walkSelect := func(s *sqlast.Select) {
		// Names shadowed by the subselect's own FROM are not ours.
		inner := map[string]bool{}
		for _, ref := range s.From {
			inner[ref.Name()] = true
		}
		var ws func(e sqlast.Expr)
		ws = func(e sqlast.Expr) {
			switch x := e.(type) {
			case *sqlast.Col:
				if x.Table != "" && !inner[x.Table] {
					if _, ok := local[x.Table]; ok {
						out[x.Table] = true
					}
				}
			case *sqlast.Binary:
				ws(x.L)
				ws(x.R)
			case *sqlast.Not:
				ws(x.X)
			case *sqlast.Between:
				ws(x.X)
				ws(x.Lo)
				ws(x.Hi)
			case *sqlast.IsNull:
				ws(x.X)
			case *sqlast.Func:
				for _, a := range x.Args {
					ws(a)
				}
			case *sqlast.Exists:
				if x.Select.Where != nil {
					ws(x.Select.Where)
				}
			case *sqlast.Subquery:
				if x.Select.Where != nil {
					ws(x.Select.Where)
				}
			}
		}
		if s.Where != nil {
			ws(s.Where)
		}
	}
	walk = func(e sqlast.Expr) {
		switch x := e.(type) {
		case *sqlast.Col:
			if x.Table != "" {
				if _, ok := local[x.Table]; ok {
					out[x.Table] = true
				}
				return
			}
			// Unqualified: count every local table that has the column.
			for name, t := range local {
				if t.ColIndex(x.Column) >= 0 {
					out[name] = true
				}
			}
		case *sqlast.Binary:
			walk(x.L)
			walk(x.R)
		case *sqlast.Not:
			walk(x.X)
		case *sqlast.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *sqlast.IsNull:
			walk(x.X)
		case *sqlast.Func:
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlast.Exists:
			walkSelect(x.Select)
		case *sqlast.Subquery:
			walkSelect(x.Select)
		}
	}
	walk(e)
	return out
}

// bestAccess finds the cheapest access path for table t (named name)
// given the currently bound tables, comparing synopsis-backed
// estimates (estimate.go). connected reports whether any usable
// conjunct references the table at all — a table without one joins as
// a cross product and is deferred by the caller. src is the conjunct
// that produced the chosen path (nil for the full-scan default) so
// the estimator can avoid double-counting its selectivity.
func (p *planner) bestAccess(name string, t *Table, conjuncts []*conjunct, bound map[string]bool, sc *scope) (access accessPath, connected bool, src *conjunct) {
	st := p.snap.stateOf(t)
	var best accessPath = fullScan{}
	bestEst, _ := p.accessEstimate(best, st)
	consider := func(a accessPath, c *conjunct) {
		if a == nil {
			return
		}
		e, _ := p.accessEstimate(a, st)
		if e < bestEst || (e == bestEst && a.rank() < best.rank()) {
			best, bestEst, src = a, e, c
		}
	}
	for _, c := range conjuncts {
		if c.expr == nil || !c.localRef[name] {
			continue
		}
		// All other local references must already be bound.
		usable := true
		for ref := range c.localRef {
			if ref != name && !bound[ref] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		connected = true
		switch x := c.expr.(type) {
		case *sqlast.Binary:
			consider(p.accessFromBinary(name, t, x, sc), c)
		case *sqlast.Between:
			consider(p.accessFromBetween(name, t, x, sc), c)
		}
	}
	return best, connected, src
}

// colOf returns the column position if e is a column of the table
// named name, else -1.
func (p *planner) colOf(e sqlast.Expr, name string, t *Table, sc *scope) int {
	c, ok := e.(*sqlast.Col)
	if !ok {
		return -1
	}
	tn, _, pos, err := sc.resolve(c)
	if err != nil || tn != name {
		return -1
	}
	return pos
}

// concatColOf matches 'col || const' where col belongs to the table.
func (p *planner) concatColOf(e sqlast.Expr, name string, t *Table, sc *scope) int {
	b, ok := e.(*sqlast.Binary)
	if !ok || b.Op != sqlast.OpConcat {
		return -1
	}
	if _, lit := b.R.(*sqlast.BytesLit); !lit {
		return -1
	}
	return p.colOf(b.L, name, t, sc)
}

// free reports whether the expression references the given table at
// all (directly); used to ensure key expressions don't depend on the
// table being accessed.
func (p *planner) freeOf(e sqlast.Expr, name string, t *Table) bool {
	refs := p.localRefs(e, map[string]*Table{name: t})
	return !refs[name]
}

func (p *planner) accessFromBinary(name string, t *Table, b *sqlast.Binary, sc *scope) accessPath {
	switch b.Op {
	case sqlast.OpEq:
		if a := p.eqAccess(name, t, b.L, b.R, sc); a != nil {
			return a
		}
		return p.eqAccess(name, t, b.R, b.L, sc)
	case sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		// Normalize to 'colSide OP otherSide'.
		if a := p.rangeAccess(name, t, b.L, b.Op, b.R, sc); a != nil {
			return a
		}
		return p.rangeAccess(name, t, b.R, flipOp(b.Op), b.L, sc)
	}
	return nil
}

func flipOp(op sqlast.BinOp) sqlast.BinOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	}
	return op
}

// eqAccess builds an equality access on colSide = keySide.
func (p *planner) eqAccess(name string, t *Table, colSide, keySide sqlast.Expr, sc *scope) accessPath {
	col := p.colOf(colSide, name, t, sc)
	if col < 0 || !p.freeOf(keySide, name, t) {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, keySide, sc) {
		return nil
	}
	key, err := p.compile(keySide, sc)
	if err != nil {
		return nil
	}
	st := p.snap.stateOf(t)
	if ix := st.findIndex(col); ix != nil && len(ix.Cols) == 1 {
		return &indexEq{ix: ix, keys: []cexpr{key}}
	}
	h := &hashEq{col: col, key: key}
	// A hash join on a low-cardinality column degenerates to a scan;
	// rank it accordingly so selective paths win. The decision reads
	// the synopsis's distinct count instead of building the hash index
	// at plan time (the two agree exactly below the histogram cap).
	if len(st.rows) > 64 {
		if d := st.syn.Col(col).Distinct(); d > 0 && int64(len(st.rows))/d > 16 {
			return &fatHash{h: h}
		}
	}
	return h
}

// rangeAccess builds a one-sided index range from 'colExpr op bound'.
// colExpr may be a plain column or 'col || const' (the Dewey
// descendant-limit pattern); in the concat case only upper bounds are
// implied (v||k < b implies v < b).
func (p *planner) rangeAccess(name string, t *Table, colSide sqlast.Expr, op sqlast.BinOp, boundSide sqlast.Expr, sc *scope) accessPath {
	if !p.freeOf(boundSide, name, t) {
		return nil
	}
	col := p.colOf(colSide, name, t, sc)
	concat := false
	if col < 0 {
		col = p.concatColOf(colSide, name, t, sc)
		if col < 0 {
			return nil
		}
		concat = true
	}
	ix := p.snap.stateOf(t).findIndex(col)
	if ix == nil {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, boundSide, sc) {
		return nil
	}
	key, err := p.compile(boundSide, sc)
	if err != nil {
		return nil
	}
	if concat {
		// v || k OP bound: only '<' / '<=' imply a bound on v (v < bound).
		if op == sqlast.OpLt || op == sqlast.OpLe {
			return &indexRange{ix: ix, hi: key, hiStrict: true}
		}
		return nil
	}
	switch op {
	case sqlast.OpGt:
		return &indexRange{ix: ix, lo: key, loStrict: true}
	case sqlast.OpGe:
		return &indexRange{ix: ix, lo: key}
	case sqlast.OpLt:
		return &indexRange{ix: ix, hi: key, hiStrict: true}
	case sqlast.OpLe:
		return &indexRange{ix: ix, hi: key}
	}
	return nil
}

func (p *planner) accessFromBetween(name string, t *Table, b *sqlast.Between, sc *scope) accessPath {
	col := p.colOf(b.X, name, t, sc)
	if col < 0 {
		// Ancestor shape: 'X BETWEEN t.col AND t.col || const' with X
		// bound — t.col must be a prefix of X's value.
		loCol := p.colOf(b.Lo, name, t, sc)
		hiCol := p.concatColOf(b.Hi, name, t, sc)
		if loCol >= 0 && loCol == hiCol && p.freeOf(b.X, name, t) && t.Cols[loCol].Type == TBytes {
			if k, ok := p.staticKind(b.X, sc); ok && k == KBytes {
				if ix := p.snap.stateOf(t).findIndex(loCol); ix != nil {
					if x, err := p.compile(b.X, sc); err == nil {
						return &indexPrefixes{ix: ix, x: x}
					}
				}
			}
		}
		return nil
	}
	if !p.freeOf(b.Lo, name, t) || !p.freeOf(b.Hi, name, t) {
		return nil
	}
	ix := p.snap.stateOf(t).findIndex(col)
	if ix == nil {
		return nil
	}
	if !p.typesMatch(t.Cols[col].Type, b.Lo, sc) || !p.typesMatch(t.Cols[col].Type, b.Hi, sc) {
		return nil
	}
	lo, err := p.compile(b.Lo, sc)
	if err != nil {
		return nil
	}
	hi, err := p.compile(b.Hi, sc)
	if err != nil {
		return nil
	}
	return &indexRange{ix: ix, lo: lo, hi: hi}
}

// typesMatch reports whether an expression's static type equals the
// column type exactly, so index keys compare without coercion.
func (p *planner) typesMatch(ct Type, e sqlast.Expr, sc *scope) bool {
	k, ok := p.staticKind(e, sc)
	if !ok {
		return false
	}
	switch ct {
	case TInt:
		return k == KInt
	case TText:
		return k == KText
	case TBytes:
		return k == KBytes
	default:
		return false
	}
}

// staticKind infers the runtime kind an expression always produces
// (ignoring NULL, which access paths handle by returning no rows).
func (p *planner) staticKind(e sqlast.Expr, sc *scope) (Kind, bool) {
	switch x := e.(type) {
	case *sqlast.Col:
		_, t, pos, err := sc.resolve(x)
		if err != nil {
			return 0, false
		}
		switch t.Cols[pos].Type {
		case TInt:
			return KInt, true
		case TFloat:
			return KFloat, true
		case TText:
			return KText, true
		case TBytes:
			return KBytes, true
		}
	case *sqlast.IntLit:
		return KInt, true
	case *sqlast.StrLit:
		return KText, true
	case *sqlast.BytesLit:
		return KBytes, true
	case *sqlast.Binary:
		switch x.Op {
		case sqlast.OpConcat:
			lk, lok := p.staticKind(x.L, sc)
			rk, rok := p.staticKind(x.R, sc)
			if !lok || !rok {
				return 0, false
			}
			if lk == KBytes || rk == KBytes {
				return KBytes, true
			}
			return KText, true
		case sqlast.OpAdd, sqlast.OpSub, sqlast.OpMul, sqlast.OpMod:
			// Integer arithmetic stays integer (see Arith), so bounds
			// like 'v.pre + v.size' remain index-usable.
			lk, lok := p.staticKind(x.L, sc)
			rk, rok := p.staticKind(x.R, sc)
			if lok && rok && lk == KInt && rk == KInt {
				return KInt, true
			}
		}
	}
	return 0, false
}

// compile translates an AST expression to a compiled one.
func (p *planner) compile(e sqlast.Expr, sc *scope) (cexpr, error) {
	switch x := e.(type) {
	case *sqlast.Col:
		name, _, pos, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		return &ccol{table: name, pos: pos}, nil
	case *sqlast.IntLit:
		return &clit{v: NewInt(x.Value)}, nil
	case *sqlast.FloatLit:
		return &clit{v: NewFloat(x.Value)}, nil
	case *sqlast.StrLit:
		return &clit{v: NewText(x.Value)}, nil
	case *sqlast.BytesLit:
		return &clit{v: NewBytes(x.Value)}, nil
	case *sqlast.NullLit:
		return &clit{v: Null}, nil
	case *sqlast.Binary:
		l, err := p.compile(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := p.compile(x.R, sc)
		if err != nil {
			return nil, err
		}
		return &cbin{op: x.Op, l: l, r: r}, nil
	case *sqlast.Not:
		inner, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		return &cnot{x: inner}, nil
	case *sqlast.Between:
		cx, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		lo, err := p.compile(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := p.compile(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		return &cbetween{x: cx, lo: lo, hi: hi}, nil
	case *sqlast.IsNull:
		inner, err := p.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		return &cisnull{x: inner, negate: x.Negate}, nil
	case *sqlast.Func:
		name := strings.ToUpper(x.Name)
		want := map[string]int{"REGEXP_LIKE": 2, "LENGTH": 1, "LOWER": 1, "UPPER": 1, "ABS": 1, "SUBSTR": 2}
		n, known := want[name]
		if !known {
			return nil, fmt.Errorf("engine: unknown function %q", x.Name)
		}
		if len(x.Args) != n {
			return nil, fmt.Errorf("engine: %s takes %d argument(s)", name, n)
		}
		cf := &cfunc{name: name}
		for _, a := range x.Args {
			ca, err := p.compile(a, sc)
			if err != nil {
				return nil, err
			}
			cf.args = append(cf.args, ca)
		}
		if name == "REGEXP_LIKE" {
			if lit, ok := x.Args[1].(*sqlast.StrLit); ok {
				m, err := compilePattern(lit.Value)
				if err != nil {
					return nil, err
				}
				cf.re = m
			}
		}
		return cf, nil
	case *sqlast.Exists:
		sub, err := p.planSelect(x.Select, sc)
		if err != nil {
			return nil, err
		}
		return &cexists{plan: sub, negate: x.Negate}, nil
	case *sqlast.Subquery:
		sub, err := p.planSelect(x.Select, sc)
		if err != nil {
			return nil, err
		}
		if !sub.countStar && len(sub.cols) != 1 {
			return nil, fmt.Errorf("engine: scalar subquery must project one column")
		}
		return &csubq{plan: sub}, nil
	case *sqlast.CountStar:
		return nil, fmt.Errorf("engine: COUNT(*) is only allowed as the sole projection of a subquery")
	}
	return nil, fmt.Errorf("engine: cannot compile %T", e)
}

// Explain renders the statement's physical operator tree (one line
// per operator, correlated subplans nested) for diagnostics and
// tests. The statement is planned through the plan cache but not
// executed; EXPLAIN ANALYZE (explain.go) runs it and annotates each
// operator with its OpStats.
func (db *DB) Explain(st sqlast.Statement) (out string, err error) {
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, ExecOptions{})
	if err != nil {
		return "", err
	}
	return renderCompiled(cs, nil), nil
}

// JoinSteps returns, for tests and experiment reports, the number of
// FROM tables in each SELECT of the statement (the paper's join-count
// metric: tables minus one per SELECT, plus subselect joins).
func JoinSteps(st sqlast.Statement) int {
	n := 0
	var countSelect func(s *sqlast.Select)
	var countExpr func(e sqlast.Expr)
	countExpr = func(e sqlast.Expr) {
		switch x := e.(type) {
		case *sqlast.Binary:
			countExpr(x.L)
			countExpr(x.R)
		case *sqlast.Not:
			countExpr(x.X)
		case *sqlast.Between:
			countExpr(x.X)
			countExpr(x.Lo)
			countExpr(x.Hi)
		case *sqlast.IsNull:
			countExpr(x.X)
		case *sqlast.Func:
			for _, a := range x.Args {
				countExpr(a)
			}
		case *sqlast.Exists:
			countSelect(x.Select)
		case *sqlast.Subquery:
			countSelect(x.Select)
		}
	}
	countSelect = func(s *sqlast.Select) {
		n += len(s.From)
		if s.Where != nil {
			countExpr(s.Where)
		}
	}
	switch s := st.(type) {
	case *sqlast.Select:
		countSelect(s)
	case *sqlast.Union:
		for _, sel := range s.Selects {
			countSelect(sel)
		}
	}
	return n
}

// MaxBranchJoins returns the largest per-SELECT join count of the
// statement: for a UNION it is the widest branch (each counted with
// its subselect joins), for a plain SELECT it equals JoinSteps. This
// is the metric behind the paper's SQL-splitting argument — splitting
// a query into UNION branches trades statement count for shorter join
// chains, so branches are compared individually.
func MaxBranchJoins(st sqlast.Statement) int {
	switch s := st.(type) {
	case *sqlast.Union:
		m := 0
		for _, sel := range s.Selects {
			if n := JoinSteps(sel); n > m {
				m = n
			}
		}
		return m
	default:
		return JoinSteps(st)
	}
}
