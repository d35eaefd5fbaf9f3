package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sqlast"
)

// EXPLAIN ANALYZE: run the statement with per-operator timing enabled
// and render the physical operator tree annotated with each
// operator's merged OpStats (see opstats.go for counter semantics;
// operator times are inclusive of nested operators, like the
// indentation of the rendered tree).

// ExplainAnalyzeWithOptions executes the statement with the given
// options (so parallel plans report their merged per-worker stats)
// and returns the annotated plan.
func (db *DB) ExplainAnalyzeWithOptions(st sqlast.Statement, opts ExecOptions) (out string, err error) {
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, opts)
	if err != nil {
		return "", err
	}
	return db.explainAnalyze(nil, cs, opts, key)
}

// explainAnalyze runs a compiled statement with operator timing on and
// renders its annotated plan. Callers must have deferred guardPanics.
func (db *DB) explainAnalyze(ctx context.Context, cs *compiledStmt, opts ExecOptions, key string) (string, error) {
	res, frame, err := db.runCompiledFrame(ctx, cs, opts, key, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(renderCompiled(cs, frame))
	fmt.Fprintf(&b, "total: rows=%d peak-mem=%dB\n", len(res.Rows), res.PeakMemBytes)
	return b.String(), nil
}

// explainResult answers an EXPLAIN [ANALYZE] statement whose wrapped
// statement compiled to cs, returning the rendered plan as a
// one-column result (one row per plan line). Callers must have
// deferred guardPanics.
func (db *DB) explainResult(ctx context.Context, analyze bool, cs *compiledStmt, opts ExecOptions, key string) (*Result, error) {
	text := ""
	if analyze {
		var err error
		if text, err = db.explainAnalyze(ctx, cs, opts, key); err != nil {
			return nil, err
		}
	} else {
		text = renderCompiled(cs, nil)
	}
	res := &Result{Cols: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []Value{NewText(line)})
	}
	return res, nil
}

// OpReport is one operator's estimate-vs-observed record from an
// AnalyzeReport run, the structured companion to EXPLAIN ANALYZE's
// est_rows/q annotations for experiment harnesses (bench planquality).
type OpReport struct {
	Label string
	// Kind classifies the operator ("scan", "filter", "project",
	// "count", "distinct", "sort", "union", "subplan") so harnesses can
	// compute structural metrics (e.g. intermediate result sizes) without
	// parsing labels. Reports arrive in render order: a step's filter
	// immediately follows its scan.
	Kind string
	// EstRows is the planner's per-loop output estimate, valid when
	// HasEst (scans and filters carry estimates; projections, sorts and
	// union machinery do not).
	EstRows float64
	HasEst  bool
	Loops   int64
	RowsOut int64
	// QError is the symmetric ratio error between EstRows and the
	// observed per-loop output, 0 when the operator has no estimate or
	// never ran.
	QError float64
}

// AnalyzeReport executes the statement and returns the per-operator
// estimate/observation records in render order, plus the result.
func (db *DB) AnalyzeReport(st sqlast.Statement, opts ExecOptions) (reports []OpReport, res *Result, err error) {
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, opts)
	if err != nil {
		return nil, nil, err
	}
	res, frame, err := db.runCompiledFrame(nil, cs, opts, key, false)
	if err != nil {
		return nil, nil, err
	}
	walkOps(cs, func(n *opNode) {
		r := OpReport{Label: n.label, Kind: n.kind.String(), EstRows: n.est, HasEst: n.hasEst,
			Loops: frame[n.id].loops, RowsOut: frame[n.id].rowsOut}
		if n.hasEst && r.Loops > 0 {
			r.QError = qError(n.est, float64(r.RowsOut)/float64(r.Loops))
		}
		reports = append(reports, r)
	})
	return reports, res, nil
}

// OperatorCount returns the number of physical operator nodes the
// statement lowers to (scans, filters, projections, dedup, sorts,
// union machinery, and correlated-subplan boundaries) — the
// per-operator companion to JoinSteps for experiment reports.
func (db *DB) OperatorCount(st sqlast.Statement) (n int, err error) {
	key := sqlast.Render(st)
	defer guardPanics(key, &err)
	cs, err := db.compile(st, key, ExecOptions{})
	if err != nil {
		return 0, err
	}
	return cs.nOps, nil
}
