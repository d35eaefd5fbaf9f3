package engine

import (
	"bytes"
	"context"
	"errors"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sqlast"
)

// Result is the outcome of executing a statement.
type Result struct {
	Cols []string
	Rows [][]Value
	// PeakMemBytes is the statement's peak accounted memory: the
	// high-water mark of materialized result rows, ORDER BY keys,
	// DISTINCT sets, per-morsel buffers and exec-time hash builds
	// (see the resource governor in govern.go).
	PeakMemBytes int64
}

// ExecOptions tune the execution of a single statement.
type ExecOptions struct {
	// Parallelism is the maximum number of worker goroutines the
	// morsel executor may use for the driving table of a top-level
	// SELECT. Values <= 1 select the serial executor. Nested
	// (correlated) subplans always run serially within the worker
	// that binds their outer row.
	Parallelism int
	// Timeout is a wall-clock budget; ErrTimeout reports an exceeded
	// budget (0 means no limit).
	Timeout time.Duration
	// MaxMemoryBytes bounds the bytes the statement may materialize
	// (result rows, ORDER BY keys, DISTINCT sets, per-morsel output
	// buffers, exec-time hash-join builds); ErrMemoryBudget reports
	// an overrun (0 means no limit).
	MaxMemoryBytes int64
	// MaxRows bounds the result rows the statement may materialize;
	// ErrRowBudget reports an overrun (0 means no limit). COUNT(*)
	// aggregation counts without materializing and is not bounded.
	MaxRows int64
	// VerifyPlan runs the installed plan verifier (SetPlanVerifier)
	// against the compiled plan before executing — a debug check that
	// the plan the cache hands back is still provably equivalent to
	// the statement. Execution fails when the verifier rejects the
	// plan. A no-op when no verifier is installed.
	VerifyPlan bool
	// BatchSize is the row-id batch capacity at operator boundaries
	// (values <= 0 select DefaultBatchSize). Results, operator stats
	// and EXPLAIN ANALYZE output are identical at every batch size;
	// BatchSize=1 degenerates to row-at-a-time execution and exists
	// for debugging and the invariance tests.
	BatchSize int
}

// execCtx carries execution state shared across a statement run. Each
// parallel worker gets its own execCtx so the deadline tick counter
// stays unshared; the accountant and context are shared across
// workers.
type execCtx struct {
	db          *DB
	ctx         context.Context // nil when the statement has no context
	deadline    time.Time
	ticks       int
	parallelism int
	acct        *accountant
	sql         string // rendered statement text, for InternalError
	// stats is this execution's operator stats frame (one slot per
	// opNode id). Parallel workers carry private frames merged into
	// the parent's after the workers join, so slots are single-writer.
	stats opFrame
	// cur is the operator whose expressions are currently being
	// evaluated; pattern-cache hits are attributed to it.
	cur *OpStats
	// timing enables per-operator wall-clock measurement (EXPLAIN
	// ANALYZE); plain runs never read the clock per operator.
	timing bool
	// batch is the resolved row-id batch capacity (ExecOptions.
	// BatchSize or DefaultBatchSize); free/freeOne pool the per-step
	// batch scratches (batch.go). Scratches are execCtx-local: every
	// parallel worker has a private execCtx.
	batch   int
	free    []*batchScratch
	freeOne []*batchScratch
}

// op returns the stats slot of an operator node in this execution's
// frame.
func (ec *execCtx) op(n *opNode) *OpStats { return &ec.stats[n.id] }

// ErrTimeout is returned when a statement exceeds its deadline.
var ErrTimeout = errors.New("engine: statement timed out")

// checkNow checks cancellation and the deadline unconditionally.
// Phase boundaries (after a hash-join build, before fan-out) call it
// directly so a deadline that expired during a long build is
// observed before the next phase starts, regardless of the tick
// counter's position.
func (ec *execCtx) checkNow() error {
	if ec.ctx != nil {
		select {
		case <-ec.ctx.Done():
			return ec.ctx.Err()
		default:
		}
	}
	if !ec.deadline.IsZero() && time.Now().After(ec.deadline) {
		return ErrTimeout
	}
	return nil
}

// pattern returns a compiled matcher for a dynamic REGEXP_LIKE
// pattern (constant patterns are compiled at plan time), attributing
// cache hits to the operator currently evaluating expressions.
func (ec *execCtx) pattern(pat string) (*matcher, error) {
	if m := lookupPattern(pat); m != nil {
		if ec.cur != nil {
			ec.cur.patternHit()
		}
		return m, nil
	}
	return compilePattern(pat)
}

// RunWithOptions is RunWithOptionsContext without a context.
func (db *DB) RunWithOptions(st sqlast.Statement, opts ExecOptions) (*Result, error) {
	return db.RunWithOptionsContext(nil, st, opts)
}

// RunWithOptionsContext executes any statement of the dialect with
// the given options, honoring ctx cancellation (nil means no context).
// SELECT and UNION return rows; EXPLAIN [ANALYZE] returns the rendered
// plan, one row per line; CREATE TABLE, CREATE INDEX and INSERT mutate
// the database and return a single status row (opts does not apply to
// them). It is the statement boundary: an internal panic anywhere in
// planning or execution returns as *InternalError instead of
// propagating.
func (db *DB) RunWithOptionsContext(ctx context.Context, st sqlast.Statement, opts ExecOptions) (res *Result, err error) {
	// Writes dispatch before the panic guard on purpose: a panic while
	// publishing a table or logging to the WAL may leave the database
	// half-mutated, so it stops the process (fail-stop) instead of
	// returning an error the caller could ignore and keep serving from.
	switch st.(type) {
	case *sqlast.CreateTable, *sqlast.CreateIndex, *sqlast.Insert:
		return db.execWrite(st)
	}
	// EXPLAIN plans (and under ANALYZE runs) the statement it wraps.
	ex, explain := st.(*sqlast.Explain)
	if explain {
		st = ex.Stmt
	}
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, opts)
	if err != nil {
		return nil, err
	}
	if explain {
		return db.explainResult(ctx, ex.Analyze, cs, opts, key)
	}
	res, _, err = db.runCompiledFrame(ctx, cs, opts, key, false)
	return res, err
}

// compile is the prologue every read entry point shares: it plans st
// through the plan cache and, when opts.VerifyPlan is set, checks the
// plan with the installed verifier. key is sqlast.Render(st); callers
// must have deferred guardPanics with it.
func (db *DB) compile(st sqlast.Statement, key string, opts ExecOptions) (*compiledStmt, error) {
	cs, err := db.compiledFor(st, key)
	if err != nil {
		return nil, err
	}
	if opts.VerifyPlan {
		if err := verifyCompiled(st, key, cs); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// runCompiledFrame executes an already-compiled statement and returns
// its result with the execution's operator stats frame (merged across
// workers). Callers must have deferred guardPanics; sql is the
// rendered statement text carried into worker-side InternalErrors.
// timing enables per-operator wall-clock measurement; EXPLAIN ANALYZE
// is its only caller with timing on, so plain runs stay clock-free in
// the row loops.
func (db *DB) runCompiledFrame(ctx context.Context, cs *compiledStmt, opts ExecOptions, sql string, timing bool) (*Result, opFrame, error) {
	ec := &execCtx{db: db, parallelism: opts.Parallelism, sql: sql,
		acct:  newAccountant(opts.MaxMemoryBytes, opts.MaxRows),
		stats: make(opFrame, cs.nOps), timing: timing,
		batch: opts.BatchSize}
	if ec.batch <= 0 {
		ec.batch = DefaultBatchSize
	}
	if ctx != nil {
		ec.ctx = ctx
		if d, ok := ctx.Deadline(); ok {
			ec.deadline = d
		}
	}
	if opts.Timeout > 0 {
		if d := time.Now().Add(opts.Timeout); ec.deadline.IsZero() || d.Before(ec.deadline) {
			ec.deadline = d
		}
	}
	// An already-cancelled context (or spent deadline) fails before any
	// work: short statements would otherwise finish between periodic
	// checks and mask the cancellation.
	if err := ec.checkNow(); err != nil {
		return nil, ec.stats, err
	}
	var res *Result
	var err error
	if cs.sel != nil {
		res, err = ec.runTop(cs.sel)
	} else {
		res, err = ec.runUnion(cs.union)
	}
	// Record the peak even when the statement failed: a budget error is
	// exactly when the high-water mark matters.
	db.notePeakMemory(ec.acct.peakBytes())
	if err != nil {
		return nil, ec.stats, err
	}
	finalizeFrame(cs, ec.stats)
	// Publish the finalized frame as planning feedback: the next
	// plan-cache hit compares it against the plan's cardinality
	// estimates and re-plans when they disagree (plancache.go).
	frame := ec.stats
	cs.feedback.Store(&frame)
	res.PeakMemBytes = ec.acct.peakBytes()
	return res, ec.stats, nil
}

// runUnion executes a compiled UNION: branches run in order (each
// branch through runTop, so morsel parallelism applies per branch),
// duplicate rows are dropped across branches, and the merged rows are
// ordered by the union-level ORDER BY.
func (ec *execCtx) runUnion(u *unionPlan) (*Result, error) {
	out := &Result{Cols: u.cols}
	st := ec.op(u.phys.union)
	st.open()
	seen := map[string]bool{}
	var rows []orderedRow
	for _, plan := range u.branches {
		res, err := ec.runTop(plan)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			st.rowIn()
			key := rowKey(r)
			if seen[key] {
				continue
			}
			// The union-level dedup set and merged buffer are additional
			// materialization on top of the (already accounted) branch
			// results.
			if err := ec.acct.growBytes(int64(len(key)) + mapEntryBytes); err != nil {
				return nil, err
			}
			st.charge(int64(len(key)) + mapEntryBytes)
			seen[key] = true
			st.rowOut()
			or := orderedRow{row: r}
			for _, pos := range u.orderPos {
				or.keys = append(or.keys, r[pos])
			}
			rows = append(rows, or)
		}
	}
	if len(u.orderPos) > 0 {
		sst := ec.op(u.phys.sort)
		sst.open()
		sst.rowsInN(int64(len(rows)))
		var t0 time.Time
		if ec.timing {
			t0 = time.Now()
		}
		sortRows(rows, u.orderDesc)
		if ec.timing {
			sst.addTime(time.Since(t0))
		}
		sst.rowsOutN(int64(len(rows)))
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, r.row)
	}
	return out, nil
}

// runTop executes a plan as a top-level query: projection, DISTINCT,
// ORDER BY. When the execution options allow it and the driving table
// is large enough, row enumeration fans out over morsel workers.
func (ec *execCtx) runTop(plan *selectPlan) (*Result, error) {
	if ec.parallelism > 1 {
		rows, count, handled, err := ec.collectParallel(plan)
		if err != nil {
			return nil, err
		}
		if handled {
			return ec.finishTop(plan, rows, count, true), nil
		}
	}
	if plan.countStar {
		n := int64(0)
		err := ec.runPlan(plan, env{}, func([]Value) (bool, error) {
			n++
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		return ec.finishTop(plan, nil, n, false), nil
	}
	var rows []orderedRow
	var seen map[string]bool
	var dst *OpStats
	if plan.distinct {
		seen = map[string]bool{}
		dst = ec.op(plan.phys.dedup)
		dst.open()
	}
	// Governor charging is batched when no budget is set (the checks
	// are then no-ops and only the peak matters, which batching
	// preserves: accounted bytes only grow during collection). With a
	// budget, every row charges exactly, so the typed error fires at
	// the same logical row regardless of BatchSize.
	exact := ec.acct.limited()
	var pendRows, pendBytes int64
	err := ec.runPlanOrdered(plan, env{}, func(row, keys []Value) (bool, error) {
		if plan.distinct {
			dst.rowIn()
			k := rowKey(row)
			if seen[k] {
				return true, nil
			}
			cost := int64(len(k)) + mapEntryBytes
			if exact {
				if err := ec.acct.growBytes(cost); err != nil {
					return false, err
				}
			} else {
				pendBytes += cost
			}
			dst.charge(cost)
			seen[k] = true
			dst.rowOut()
		}
		b := rowMemBytes(row, keys)
		if exact {
			if err := ec.acct.addRow(b); err != nil {
				return false, err
			}
		} else {
			pendRows++
			pendBytes += b
			if pendRows >= int64(ec.batch) {
				if err := ec.acct.addRows(pendRows, pendBytes); err != nil {
					return false, err
				}
				pendRows, pendBytes = 0, 0
			}
		}
		rows = append(rows, orderedRow{row: row, keys: keys})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := ec.acct.addRows(pendRows, pendBytes); err != nil {
		return nil, err
	}
	return ec.finishTop(plan, rows, 0, false), nil
}

// finishTop applies DISTINCT (unless already applied during
// collection), the top-level sort, and assembles the Result. The
// parallel collector defers dedup to here so the surviving row for
// each distinct key is the first in merged (= serial) order.
func (ec *execCtx) finishTop(plan *selectPlan, rows []orderedRow, count int64, dedup bool) *Result {
	out := &Result{Cols: plan.colNames}
	if plan.countStar {
		out.Rows = append(out.Rows, []Value{NewInt(count)})
		return out
	}
	if dedup && plan.distinct {
		st := ec.op(plan.phys.dedup)
		st.open()
		st.rowsInN(int64(len(rows)))
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, r := range rows {
			k := rowKey(r.row)
			if seen[k] {
				continue
			}
			seen[k] = true
			kept = append(kept, r)
		}
		rows = kept
		st.rowsOutN(int64(len(rows)))
	}
	if len(plan.orderBy) > 0 {
		st := ec.op(plan.phys.sort)
		st.open()
		st.rowsInN(int64(len(rows)))
		desc := make([]bool, len(plan.orderBy))
		for i, k := range plan.orderBy {
			desc[i] = k.desc
		}
		var t0 time.Time
		if ec.timing {
			t0 = time.Now()
		}
		sortRows(rows, desc)
		if ec.timing {
			st.addTime(time.Since(t0))
		}
		st.rowsOutN(int64(len(rows)))
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, r.row)
	}
	return out
}

// rowKey builds a distinct-set key for a projected row using the
// order-preserving keyenc encoding.
func rowKey(row []Value) string {
	var buf []byte
	for _, v := range row {
		buf = encodeValue(buf, v)
	}
	return string(buf)
}

// lessKeys compares two ORDER BY key vectors value by value. It is
// the general comparison path; sortRows prefers precomputed
// memcomparable keys when the key kinds allow it.
func lessKeys(a, b []Value, desc []bool) bool {
	for i := range a {
		cmp, ok := Compare(a[i], b[i])
		if !ok {
			// NULLs (and incomparables) sort first.
			an, bn := a[i].IsNull(), b[i].IsNull()
			if an == bn {
				continue
			}
			cmp = 1
			if an {
				cmp = -1
			}
		}
		if cmp == 0 {
			continue
		}
		if desc[i] {
			return cmp > 0
		}
		return cmp < 0
	}
	return false
}

// runPlan enumerates matching bindings and emits projected rows.
// The emit callback returns false to stop enumeration early.
func (ec *execCtx) runPlan(plan *selectPlan, e env, emit func(row []Value) (bool, error)) error {
	return ec.runPlanBatch(plan, e, ec.batch, func(row, _ []Value) (bool, error) { return emit(row) })
}

// runPlanFirst is runPlan with single-row batches, for consumers that
// stop at the first emitted row (EXISTS, scalar subqueries): a
// read-ahead batch would make the scan/probe counters — and the work
// done past the stopping row — depend on the batch size.
func (ec *execCtx) runPlanFirst(plan *selectPlan, e env, emit func(row []Value) (bool, error)) error {
	return ec.runPlanBatch(plan, e, 1, func(row, _ []Value) (bool, error) { return emit(row) })
}

// runPlanOrdered additionally evaluates ORDER BY keys per emitted row.
func (ec *execCtx) runPlanOrdered(plan *selectPlan, e env, emit func(row, keys []Value) (bool, error)) error {
	return ec.runPlanBatch(plan, e, ec.batch, emit)
}

// runPlanBatch enumerates with an explicit batch capacity.
func (ec *execCtx) runPlanBatch(plan *selectPlan, e env, batch int, emit func(row, keys []Value) (bool, error)) error {
	if len(plan.preFilters) > 0 {
		ok, err := ec.evalPreFilters(plan, e)
		if err != nil || !ok {
			return err
		}
	}
	r := &stepRunner{ec: ec, plan: plan, e: e, emit: emit, batch: batch}
	return r.run(0)
}

// evalPreFilters evaluates the plan's constant conjuncts against the
// prefilter operator; ok=false means the plan yields no rows.
func (ec *execCtx) evalPreFilters(plan *selectPlan, e env) (ok bool, err error) {
	if len(plan.preFilters) == 0 {
		return true, nil
	}
	st := ec.op(plan.phys.prefilter)
	st.open()
	prev := ec.cur
	ec.cur = st
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	pass := true
	for _, f := range plan.preFilters {
		v, ferr := f.eval(ec, e)
		if ferr != nil {
			err = ferr
			break
		}
		if !v.Truth() {
			pass = false
			break
		}
	}
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	ec.cur = prev
	if err != nil || !pass {
		return false, err
	}
	st.rowOut()
	return true, nil
}

// stepRunner walks a plan's physical scan/filter pipeline
// recursively, binding batches of candidate rows per step. The morsel
// executor reuses it through runRoot after materializing the driving
// ids itself. batch is the id-batch capacity (1 for early-stopping
// subplan consumers, see runPlanFirst).
type stepRunner struct {
	ec    *execCtx
	plan  *selectPlan
	e     env
	emit  func(row, keys []Value) (bool, error)
	stop  bool
	batch int
}

// run opens the scan operator of the given step and pushes each batch
// of candidate rows down the pipeline (projecting and emitting once
// all steps are bound). A scan's measured time is inclusive of its
// downstream operators, like the nesting of the rendered tree.
func (r *stepRunner) run(step int) error {
	if step == len(r.plan.steps) {
		return r.project()
	}
	s := r.plan.steps[step]
	st := r.ec.op(r.plan.phys.scans[step])
	st.open()
	sc := r.ec.getScratch(r.batch)
	var err error
	if r.ec.timing {
		t0 := time.Now()
		err = r.runStep(step, s, st, sc)
		st.addTime(time.Since(t0))
	} else {
		err = r.runStep(step, s, st, sc)
	}
	r.ec.putScratch(sc)
	delete(r.e, s.name)
	return err
}

// runStep enumerates one step's candidate batches. The yield closure
// is built once per step activation — never per batch or per row.
// Consumed-row accounting matches the old per-row executor exactly: a
// row that caused an early stop or error is counted as scanned, rows
// after it in the batch are not.
func (r *stepRunner) runStep(step int, s *joinStep, st *OpStats, sc *batchScratch) error {
	yield := func(ids []int64) (bool, error) {
		if err := failpoint.Inject("engine/batch-flush"); err != nil {
			return false, err
		}
		n, err := r.processBatch(step, s, sc, ids)
		st.rowsOutN(int64(n))
		if err != nil {
			return false, err
		}
		return !r.stop, nil
	}
	return forEachBatch(r.ec, r.e, s, st, sc, yield)
}

// runRoot pushes already-materialized driving-step ids through the
// pipeline in batches. The driving scan's enumeration was counted
// when the ids were materialized (drivingIDs), so batches here go
// straight to the filter stage without re-crediting the scan.
func (r *stepRunner) runRoot(ids []int64) error {
	s := r.plan.steps[0]
	sc := r.ec.getScratch(r.batch)
	var err error
	for len(ids) > 0 && err == nil && !r.stop {
		n := len(ids)
		if n > r.batch {
			n = r.batch
		}
		_, err = r.processBatch(0, s, sc, ids[:n])
		ids = ids[n:]
	}
	r.ec.putScratch(sc)
	delete(r.e, s.name)
	return err
}

// processBatch pushes one batch of candidate ids through the step's
// filters and the rest of the pipeline, returning how many of the
// batch's rows were consumed (all of them unless an early stop or
// error cut the batch short). The deadline poll, filter-stat
// attribution, and vectorized filter pass are paid once per batch;
// binding the env entry is paid once per surviving recursion.
func (r *stepRunner) processBatch(step int, s *joinStep, sc *batchScratch, ids []int64) (int, error) {
	ec := r.ec
	if err := ec.checkBatch(len(ids)); err != nil {
		return 0, err
	}
	var fst *OpStats
	if f := r.plan.phys.filters[step]; f != nil {
		fst = ec.op(f)
	}
	var keep []bool
	if len(s.vec) > 0 {
		if ec.timing {
			t0 := time.Now()
			keep = r.vecFilter(s, sc, ids)
			fst.addTime(time.Since(t0))
		} else {
			keep = r.vecFilter(s, sc, ids)
		}
	}
	rows := s.st.rows
	rest := s.filters[len(s.vec):]
	for i, id := range ids {
		if keep != nil && !keep[i] {
			continue
		}
		r.e[s.name] = rows[id]
		if len(rest) > 0 {
			pass, err := r.evalFilters(rest, fst)
			if err != nil {
				return i + 1, err
			}
			if !pass {
				continue
			}
		}
		if err := r.run(step + 1); err != nil {
			return i + 1, err
		}
		if r.stop {
			return i + 1, nil
		}
	}
	return len(ids), nil
}

// evalFilters evaluates the step's residual (non-vectorized) filter
// conjuncts for the currently bound row. No row counting here: the
// filter's row flow is derived once per execution by finalizeFrame;
// only expression attribution (ec.cur) and, under EXPLAIN ANALYZE,
// wall-clock attribution are maintained.
func (r *stepRunner) evalFilters(filters []cexpr, st *OpStats) (ok bool, err error) {
	ec := r.ec
	prev := ec.cur
	ec.cur = st
	var t0 time.Time
	if ec.timing {
		t0 = time.Now()
	}
	pass := true
	for _, f := range filters {
		v, ferr := f.eval(ec, r.e)
		if ferr != nil {
			err = ferr
			break
		}
		if !v.Truth() {
			pass = false
			break
		}
	}
	if ec.timing {
		st.addTime(time.Since(t0))
	}
	ec.cur = prev
	return err == nil && pass, err
}

// project evaluates the projection (and ORDER BY keys) for a fully
// bound row and emits it through the output operator.
func (r *stepRunner) project() error {
	ec := r.ec
	st := ec.op(r.plan.phys.output)
	st.rowIn()
	prev := ec.cur
	ec.cur = st
	var row, keys []Value
	var err error
	if ec.timing {
		t0 := time.Now()
		row, keys, err = r.projectRow()
		st.addTime(time.Since(t0))
	} else {
		row, keys, err = r.projectRow()
	}
	ec.cur = prev
	if err != nil {
		return err
	}
	st.rowOut()
	cont, err := r.emit(row, keys)
	if err != nil {
		return err
	}
	if !cont {
		r.stop = true
	}
	return nil
}

// projectRow evaluates the projection columns and ORDER BY keys for
// the currently bound row.
func (r *stepRunner) projectRow() (row, keys []Value, err error) {
	ec := r.ec
	if !r.plan.countStar {
		row = make([]Value, len(r.plan.cols))
		for i, c := range r.plan.cols {
			if row[i], err = c.eval(ec, r.e); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(r.plan.orderBy) > 0 {
		keys = make([]Value, len(r.plan.orderBy))
		for i, k := range r.plan.orderBy {
			if keys[i], err = k.x.eval(ec, r.e); err != nil {
				return nil, nil, err
			}
		}
	}
	return row, keys, nil
}

// equalResults reports whether two results hold the same multiset of
// rows in the same order; used by tests.
func equalResults(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !bytes.Equal([]byte(rowKey(a.Rows[i])), []byte(rowKey(b.Rows[i]))) {
			return false
		}
	}
	return true
}
