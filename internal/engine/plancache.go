package engine

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// planCacheCap bounds the number of cached compiled statements per DB.
const planCacheCap = 256

// compiledStmt is a fully planned statement (exactly one of sel/union
// is set) plus the snapshot states of every table it was planned
// against. It is the engine's only handle on a plan, and it lives in
// the plan cache rather than with callers.
type compiledStmt struct {
	sel    *selectPlan
	union  *unionPlan
	tables []tableVer
	// nOps is the number of operator nodes lowerStmt assigned across
	// the whole statement (including subplans and union branches): the
	// size of the per-execution stats frame.
	nOps int
	// feedback holds the merged OpStats frame of the most recent
	// successful execution (stored by runCompiledFrame after the frame
	// is finalized), read on the next plan-cache hit to detect
	// mis-estimated plans. Atomic: executions and cache lookups race.
	feedback atomic.Pointer[opFrame]
	// replans counts how many adaptive re-plans led to this plan,
	// bounded by maxAdaptiveReplans so estimation noise cannot cause
	// plan flapping. Written only at compile time.
	replans int
}

// tableVer pins the state a table had at plan time. States are
// immutable and never reused across versions, so pointer equality
// against the current snapshot is exactly "the table has not been
// mutated since planning".
type tableVer struct {
	t  *Table
	st *tableState
}

// fresh reports whether none of the plan's tables have been mutated
// since planning, judged against the given snapshot.
func (cs *compiledStmt) fresh(snap *dbSnap) bool {
	for _, tv := range cs.tables {
		if snap.stateOf(tv.t) != tv.st {
			return false
		}
	}
	return true
}

// unionPlan is the compiled form of a UNION statement: per-branch
// plans plus the union-level ORDER BY resolved to projected column
// positions.
type unionPlan struct {
	branches  []*selectPlan
	cols      []string
	orderPos  []int
	orderDesc []bool
	phys      *physUnion // union-level operators, set by lowerStmt
}

// ovEst is one alias's observed cardinalities injected by adaptive
// re-planning: rows is the per-binding output after the step's
// residual filters, access the per-binding output of its access path
// (0 = not observed separately). after pins the join position the
// numbers were observed in (boundKey of the aliases bound before the
// step): a per-binding cardinality is meaningless at any other
// position — a probed table yields ~1 row per binding where a leading
// scan of the same table yields the whole relation — and applying it
// regardless of position makes consecutive re-plans invert the join
// order and chase their own estimates.
type ovEst struct {
	rows, access float64
	after        string
}

// boundKey canonicalizes a bound-alias set for ovEst.after matching.
func boundKey(bound map[string]bool) string {
	names := make([]string, 0, len(bound))
	for n := range bound {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// planOverrides carries observed per-alias cardinalities for adaptive
// re-planning: sel for a plain SELECT, branches aligned with a UNION's
// branch order (branch alias spaces are independent, so one flat map
// would cross-contaminate branches that reuse aliases), and subs for
// correlated subselects keyed by their rendered source text (join
// reordering changes the order subselects are compiled in, so a
// positional index would misroute them; identical subqueries share one
// map, which is sound because identical text is identical semantics).
type planOverrides struct {
	sel      map[string]ovEst
	branches []map[string]ovEst
	subs     map[string]map[string]ovEst
}

// compileStmt plans a statement from scratch against one database
// snapshot, recording the pinned states of all tables it touches
// (including correlated-subquery tables).
func compileStmt(db *DB, st sqlast.Statement) (*compiledStmt, error) {
	return compileStmtOverrides(db, st, nil)
}

// compileStmtOverrides is compileStmt with observed-cardinality
// overrides injected into the planner (adaptive re-planning).
func compileStmtOverrides(db *DB, st sqlast.Statement, ov *planOverrides) (*compiledStmt, error) {
	p := &planner{db: db, snap: db.loadSnap(), touched: map[*Table]bool{}}
	if ov != nil {
		p.subOverrides = ov.subs
	}
	cs := &compiledStmt{}
	switch s := st.(type) {
	case *sqlast.Select:
		if ov != nil {
			p.overrides = ov.sel
		}
		plan, err := p.planSelect(s, nil)
		if err != nil {
			return nil, err
		}
		cs.sel = plan
	case *sqlast.Union:
		u := &unionPlan{}
		for i, branch := range s.Selects {
			p.overrides = nil
			if ov != nil && i < len(ov.branches) {
				p.overrides = ov.branches[i]
			}
			plan, err := p.planSelect(branch, nil)
			if err != nil {
				return nil, err
			}
			if len(u.branches) == 0 {
				u.cols = plan.colNames
				// Resolve union ORDER BY keys to projected column positions.
				for _, k := range s.OrderBy {
					col, ok := k.Expr.(*sqlast.Col)
					if !ok {
						return nil, fmt.Errorf("engine: UNION ORDER BY must reference an output column")
					}
					pos := -1
					for i, name := range plan.colNames {
						if name == col.Column || name == col.String() {
							pos = i
							break
						}
					}
					if pos < 0 {
						return nil, fmt.Errorf("engine: UNION ORDER BY column %q not in output", col)
					}
					u.orderPos = append(u.orderPos, pos)
					u.orderDesc = append(u.orderDesc, k.Desc)
				}
			} else if len(plan.colNames) != len(u.cols) {
				return nil, fmt.Errorf("engine: UNION branches project different column counts")
			}
			u.branches = append(u.branches, plan)
		}
		cs.union = u
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st)
	}
	for t := range p.touched {
		cs.tables = append(cs.tables, tableVer{t: t, st: p.snap.stateOf(t)})
	}
	// Lower to the physical operator tree, then derive the vectorized
	// filter metadata, before the plan can be published to (and shared
	// through) the plan cache.
	lowerStmt(cs)
	vectorizeStmt(cs)
	return cs, nil
}

// planCache is a bounded LRU of compiled statements keyed on rendered
// SQL. A hit whose table versions are stale counts as a miss and is
// evicted; the caller then re-plans and re-inserts.
type planCache struct {
	mu sync.Mutex
	//guardedby:mu
	lru *list.List // front = most recently used; values are *planEntry
	//guardedby:mu
	byKey map[string]*list.Element
	//guardedby:mu
	hits uint64
	//guardedby:mu
	misses uint64
}

type planEntry struct {
	key string
	cs  *compiledStmt
}

// get returns the cached plan for key, or nil on miss/stale; snap is
// the snapshot freshness is judged against.
func (c *planCache) get(key string, snap *dbSnap) *compiledStmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if ok {
		cs := el.Value.(*planEntry).cs
		if cs.fresh(snap) {
			c.hits++
			c.lru.MoveToFront(el)
			return cs
		}
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	c.misses++
	return nil
}

// put inserts a freshly compiled plan, evicting the least recently
// used entry beyond capacity. A plan whose table states have
// already moved on is not inserted: a compile that raced with a
// mutation (or an evicted plan whose execution was still in flight)
// must not re-enter the cache with stale pins, where it would
// evict a good entry and force the next lookup through the
// stale-detection miss path.
func (c *planCache) put(key string, cs *compiledStmt, snap *dbSnap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !cs.fresh(snap) {
		return
	}
	if c.lru == nil {
		c.lru = list.New()
		c.byKey = map[string]*list.Element{}
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).cs = cs
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, cs: cs})
	for c.lru.Len() > planCacheCap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*planEntry).key)
	}
}

// size returns the number of cached plans.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru == nil {
		return 0
	}
	return c.lru.Len()
}

// stats returns cumulative hit/miss counters.
func (c *planCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// compiledFor returns a compiled plan for st, consulting the DB's
// plan cache. key is the canonical cache key (the sqlast rendering of
// st).
func (db *DB) compiledFor(st sqlast.Statement, key string) (*compiledStmt, error) {
	if cs := db.plans.get(key, db.loadSnap()); cs != nil {
		if next := db.maybeReplan(st, key, cs); next != nil {
			return next, nil
		}
		return cs, nil
	}
	cs, err := compileStmt(db, st)
	if err != nil {
		return nil, err
	}
	traceCompiled(st, key, cs)
	if err := failpoint.Inject("engine/plancache-insert"); err != nil {
		return nil, err
	}
	db.plans.put(key, cs, db.loadSnap())
	return cs, nil
}

// planFeedback compares the plan's per-step estimates with the
// observed stats of its last execution and returns the observed
// per-binding cardinalities keyed the way compileStmtOverrides
// expects, plus the worst per-step q-error. Steps that never executed
// (loops == 0) contribute nothing.
func planFeedback(cs *compiledStmt, frame opFrame) (*planOverrides, float64) {
	worst := 1.0
	collect := func(p *selectPlan) map[string]ovEst {
		m := map[string]ovEst{}
		bound := map[string]bool{}
		for i, s := range p.steps {
			after := boundKey(bound)
			bound[s.name] = true
			// The scan operator observes the access path's output; the
			// filter operator (when the step has one) the post-filter
			// rows — mirroring exactly what lowerSelect annotates each
			// node with, so a re-planned plan's q-errors collapse to 1.
			scan := frame[p.phys.scans[i].id]
			if scan.loops == 0 {
				continue
			}
			obsAccess := float64(scan.rowsOut) / float64(scan.loops)
			obsRows := obsAccess
			if f := p.phys.filters[i]; f != nil {
				// Vectorized filters run per scan batch, not per binding,
				// so their own loop counter stays zero; the total filter
				// output over the scan's bindings is the per-binding
				// post-filter cardinality either way.
				obsRows = float64(frame[f.id].rowsOut) / float64(scan.loops)
				if q := qError(s.estAccess, obsAccess); q > worst {
					worst = q
				}
			}
			m[s.name] = ovEst{rows: obsRows, access: obsAccess, after: after}
			if q := qError(s.estRows, obsRows); q > worst {
				worst = q
			}
		}
		return m
	}
	ov := &planOverrides{subs: map[string]map[string]ovEst{}}
	// Correlated subplans carry their own per-step estimates and stats;
	// their observations route back by rendered source (selectPlan.src).
	var collectSubs func(p *selectPlan)
	collectSubs = func(p *selectPlan) {
		for _, n := range p.phys.ops {
			for _, ref := range n.sub {
				if m := collect(ref.plan); len(m) > 0 && ref.plan.src != "" {
					ov.subs[ref.plan.src] = m
				}
				collectSubs(ref.plan)
			}
		}
	}
	if cs.sel != nil {
		ov.sel = collect(cs.sel)
		collectSubs(cs.sel)
	} else {
		for _, b := range cs.union.branches {
			ov.branches = append(ov.branches, collect(b))
			collectSubs(b)
		}
	}
	return ov, worst
}

// maybeReplan implements adaptive re-planning on a plan-cache hit:
// when the cached plan's last observed OpStats contradict its
// cardinality estimates beyond replanQErrorThreshold, the statement is
// re-planned with the observed cardinalities injected as overrides and
// the cache entry replaced. Returns nil when the cached plan stands.
// Re-planning is bounded (maxAdaptiveReplans) and version-safe: the
// new plan pins the current snapshot like any fresh compile, so a
// racing commit simply retires it through the normal freshness check.
func (db *DB) maybeReplan(st sqlast.Statement, key string, cs *compiledStmt) *compiledStmt {
	if db.heuristicPlans.Load() || cs.replans >= maxAdaptiveReplans {
		return nil
	}
	fb := cs.feedback.Load()
	if fb == nil {
		return nil
	}
	ov, worst := planFeedback(cs, *fb)
	if worst <= replanQErrorThreshold {
		return nil
	}
	next, err := compileStmtOverrides(db, st, ov)
	if err != nil {
		return nil
	}
	next.replans = cs.replans + 1
	db.replanCount.Add(1)
	traceCompiled(st, key, next)
	db.plans.put(key, next, db.loadSnap())
	return next
}

// PlanCacheSize returns the number of cached query plans.
func (db *DB) PlanCacheSize() int { return db.plans.size() }

// PlanCacheStats returns cumulative plan-cache hit and miss counts.
// Lookups that find an entry invalidated by a table mutation count as
// misses.
func (db *DB) PlanCacheStats() (hits, misses uint64) { return db.plans.stats() }
