package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/xrel"
)

// Span names: one per public call timed in the traced run, plus one
// root per operation. The prefix before the first dot is the layer.
const (
	spanQuery       = "bench.query"
	spanLoad        = "bench.load"
	spanCheckpoint  = "bench.checkpoint"
	spanOpenStore   = "bench.open"
	spanParse       = "xpath.Parse"
	spanTranslate   = "core.TranslateExpr"
	spanRender      = "sqlast.Render"
	spanPlan        = "engine.OperatorCount"
	spanExec        = "engine.RunWithOptions"
	spanMaterialise = "xrel.materialise"
	spanShred       = "shred.Load"
	spanCkptWAL     = "engine.Checkpoint"
	spanOpen        = "engine.Open"
	spanAttach      = "shred.NewSchemaAwareDB"
)

// span is one timed call. Spans of one operation share op; parent is
// the index of the enclosing span in the same recorder, -1 for a root.
type span struct {
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Miss marks a plan span whose lookup missed the plan cache.
	Miss bool `json:"miss,omitempty"`
}

// recorder keeps one goroutine's spans in memory until the run ends.
// It is not safe for concurrent use; each goroutine gets its own.
type recorder struct {
	epoch time.Time
	spans []span
	op    int32
	// opBase offsets operation ids so two recorders never share one.
	opBase int32
}

func newRecorder(epoch time.Time, opBase int32) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16), opBase: opBase}
}

// newOp starts a root span for a new operation and returns its index.
func (r *recorder) newOp(name string) int32 {
	r.op++
	return r.begin(r.opBase+r.op, -1, name)
}

func (r *recorder) begin(op, parent int32, name string) int32 {
	r.spans = append(r.spans, span{Op: op, Parent: parent, Name: name, Start: r.now()})
	return int32(len(r.spans) - 1)
}

// now is the time since the recorder's epoch, in nanoseconds.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) end(i int32) { r.spans[i].End = r.now() }

// child times fn as a child of span parent.
func (r *recorder) child(parent int32, name string, fn func()) int32 {
	i := r.begin(r.spans[parent].Op, parent, name)
	fn()
	r.end(i)
	return i
}

// selfTimes returns each span's duration minus the time its direct
// children cover (children of one span never overlap: every traced
// operation calls its layers in sequence).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeSpans writes the spans as gzipped JSON lines with their self
// times.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// xrelDefaults are the execution options of an xrel.Store that sets
// none: serial, no budgets, the default batch size.
var xrelDefaults engine.ExecOptions

// tracedStore is the store of the traced run. It is built from the
// same public calls xrel.OpenPersistent makes, and answers each query
// either exactly as xrel.Query does (untraced) or through the same
// calls split into parse, translate, render, plan, run and
// materialise, each under its own span. Calls alternate between the
// two, so the tracing overhead is measured under identical conditions.
type tracedStore struct {
	db     *engine.DB
	sh     *shred.SchemaAwareStore
	tr     *core.Translator
	reader *recorder
	writer *recorder
	calls  int
	// plan-cache outcomes of the traced plan spans (hits, misses).
	hits, misses uint64
	// untraced is the summed latency and count of the untraced calls.
	untracedNs, untracedN int64
}

// openTraced opens a persistent store through the layers' public
// functions, recording the open as one operation of the writer.
func openTraced(dir string, reader, writer *recorder) (*tracedStore, error) {
	t := &tracedStore{reader: reader, writer: writer}
	root := writer.newOp(spanOpenStore)
	var err error
	writer.child(root, spanOpen, func() { t.db, err = engine.Open(dir) })
	if err == nil {
		writer.child(root, spanAttach, func() { t.sh, err = shred.NewSchemaAwareDB(t.db, xmark.Schema()) })
		if err != nil {
			_ = t.db.Close() // the attach error is the one to report
		}
	}
	writer.end(root)
	if err != nil {
		return nil, err
	}
	t.tr = core.New(t.sh.Schema, nil)
	return t, nil
}

func (t *tracedStore) Query(q string) (*xrel.Result, error) {
	t.calls++
	if t.calls%2 == 1 {
		return t.tracedQuery(q)
	}
	start := time.Now()
	res, err := t.plainQuery(q)
	t.untracedNs += int64(time.Since(start))
	t.untracedN++
	return res, err
}

// plainQuery is the body of xrel.Store.Query.
func (t *tracedStore) plainQuery(q string) (*xrel.Result, error) {
	tr, err := t.tr.Translate(q)
	if err != nil {
		return nil, err
	}
	res, err := t.db.RunWithOptions(tr.Stmt, xrelDefaults)
	if err != nil {
		return nil, fmt.Errorf("xrel: executing %q: %w", tr.SQL, err)
	}
	return materialise(tr.SQL, res), nil
}

func (t *tracedStore) tracedQuery(q string) (*xrel.Result, error) {
	r := t.reader
	root := r.newOp(spanQuery)
	defer r.end(root)
	var expr xpath.Expr
	var err error
	r.child(root, spanParse, func() { expr, err = xpath.Parse(q) })
	if err != nil {
		return nil, err
	}
	var tr *core.Translation
	r.child(root, spanTranslate, func() { tr, err = t.tr.TranslateExpr(expr) })
	if err != nil {
		return nil, err
	}
	r.child(root, spanRender, func() { _ = sqlast.Render(tr.Stmt) })
	h0, m0 := t.db.PlanCacheStats()
	plan := r.child(root, spanPlan, func() { _, err = t.db.OperatorCount(tr.Stmt) })
	h1, m1 := t.db.PlanCacheStats()
	t.hits += h1 - h0
	t.misses += m1 - m0
	r.spans[plan].Miss = m1 > m0
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	r.child(root, spanExec, func() { res, err = t.db.RunWithOptions(tr.Stmt, xrelDefaults) })
	if err != nil {
		return nil, fmt.Errorf("xrel: executing %q: %w", tr.SQL, err)
	}
	var out *xrel.Result
	r.child(root, spanMaterialise, func() { out = materialise(tr.SQL, res) })
	return out, nil
}

// materialise builds the result exactly as xrel.Store.Query does.
func materialise(sql string, res *engine.Result) *xrel.Result {
	out := &xrel.Result{SQL: sql}
	for _, row := range res.Rows {
		n := xrel.Node{ID: row[0].I}
		if row[1].Kind == engine.KBytes {
			n.Dewey = dewey.Pos(row[1].B).String()
		}
		out.Nodes = append(out.Nodes, n)
	}
	return out
}

func (t *tracedStore) Load(doc *xmltree.Document) (id int64, err error) {
	w := t.writer
	root := w.newOp(spanLoad)
	w.child(root, spanShred, func() { id, err = t.sh.Load(doc) })
	w.end(root)
	return id, err
}

func (t *tracedStore) Checkpoint() (err error) {
	w := t.writer
	root := w.newOp(spanCheckpoint)
	w.child(root, spanCkptWAL, func() { err = t.db.Checkpoint() })
	w.end(root)
	return err
}

func (t *tracedStore) Close() error { return t.db.Close() }

func (t *tracedStore) TableSizes() []string { return t.db.SortedTableSizes() }

// rows is the total row count over all relations.
func (t *tracedStore) rows() int64 {
	var n int64
	for _, name := range t.db.TableNames() {
		n += int64(len(t.db.Table(name).Rows()))
	}
	return n
}

// hotProfile is one hot query's exact counters and repeated timings.
type hotProfile struct {
	probes, rowsOut, results int64
	translateUs, execUs      float64
}

// profileHot runs each hot query once under EXPLAIN ANALYZE (exact
// probe and row counters from a fresh plan), then times its
// translation and its run on the cached plan reps times, keeping the
// medians. It runs before the warm-up, on the base document alone.
func (t *tracedStore) profileHot(reps int) ([]hotProfile, error) {
	out := make([]hotProfile, len(xmark.Queries))
	for i, q := range xmark.Queries {
		expr, err := xpath.Parse(q.XPath)
		if err != nil {
			return nil, err
		}
		tr, err := t.tr.TranslateExpr(expr)
		if err != nil {
			return nil, err
		}
		text, err := t.db.ExplainAnalyzeWithOptions(tr.Stmt, xrelDefaults)
		if err != nil {
			return nil, fmt.Errorf("explain analyze %s: %w", q.ID, err)
		}
		p := &out[i]
		p.probes, p.rowsOut, p.results = explainCounts(text)
		var tt, te []float64
		for range reps {
			start := time.Now()
			tr, err = t.tr.TranslateExpr(expr)
			mid := time.Now()
			if err == nil {
				_, err = t.db.RunWithOptions(tr.Stmt, xrelDefaults)
			}
			if err != nil {
				return nil, fmt.Errorf("profiling %s: %w", q.ID, err)
			}
			tt = append(tt, us(mid.Sub(start)))
			te = append(te, us(time.Since(mid)))
		}
		p.translateUs, p.execUs = median(tt), median(te)
	}
	return out, nil
}

// explainCounts sums the probes= and out= counters over every operator
// line of an EXPLAIN ANALYZE rendering and reads the result row count
// from its total line.
func explainCounts(text string) (probes, rowsOut, results int64) {
	for _, line := range strings.Split(text, "\n") {
		total := strings.HasPrefix(line, "total:")
		for _, f := range strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(line)) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				continue
			}
			switch {
			case total && k == "rows":
				results = n
			case !total && k == "out":
				rowsOut += n
			case !total && k == "probes":
				probes += n
			}
		}
	}
	return probes, rowsOut, results
}

// layerSummary aggregates a run's spans.
type layerSummary struct {
	queries int
	// selfUs is the mean self time per measured query of each query
	// span name.
	selfUs map[string]float64
	// planMissUs is the mean plan span over the measured calls that
	// missed the cache.
	planMissUs float64
	// durMs lists the durations of every span by name.
	durMs map[string][]float64
}

// summarise aggregates spans; query spans count only when their
// operation started in the measured window [from, to).
func summarise(spans []span, from, to int64) layerSummary {
	self := selfTimes(spans)
	s := layerSummary{selfUs: map[string]float64{}, durMs: map[string][]float64{}}
	var missNs, misses int64
	for i, sp := range spans {
		d := sp.End - sp.Start
		s.durMs[sp.Name] = append(s.durMs[sp.Name], float64(d)/1e6)
		root := sp
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		if root.Name != spanQuery || root.Start < from || root.Start >= to {
			continue
		}
		if sp.Name == spanQuery {
			s.queries++
		}
		if sp.Miss {
			missNs += d
			misses++
		}
		s.selfUs[sp.Name] += float64(self[i]) / 1e3
	}
	for k := range s.selfUs {
		s.selfUs[k] = ratio(s.selfUs[k], float64(s.queries))
	}
	s.planMissUs = ratio(float64(missNs)/1e3, float64(misses))
	return s
}

var querySpans = []string{spanQuery, spanParse, spanTranslate, spanRender, spanPlan, spanExec, spanMaterialise}

// mergeSpans concatenates the recorders' spans, keeping parent links.
func mergeSpans(recs ...*recorder) []span {
	var all []span
	for _, r := range recs {
		off := int32(len(all))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	return all
}
