// Package xrel is the public API of the PPF XPath-on-relational
// library: it ties together XML parsing, schema graphs, schema-aware
// shredding, the PPF-based XPath-to-SQL translator of Georgiadis &
// Vassalos (EDBT 2006), and the embedded relational engine.
//
// Typical use:
//
//	s, _ := xrel.ParseCompactSchema(schemaText)
//	store, _ := xrel.Open(s)
//	store.LoadXML(strings.NewReader(document))
//	res, _ := store.Query("/site/people/person[address and phone]")
//	for _, row := range res.Nodes { ... }
package xrel

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/shred"
	"repro/internal/sqlast"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Schema is an XML schema graph (re-exported).
type Schema = schema.Schema

// Document is a parsed XML document (re-exported).
type Document = xmltree.Document

// Options tune the PPF translation (re-exported).
type Options = core.Options

// ParseCompactSchema parses the compact schema DSL (see
// internal/schema: "!root site", "site -> regions people", "person
// @id", "name #text").
func ParseCompactSchema(src string) (*Schema, error) {
	return schema.ParseCompact(src)
}

// ParseXSD parses a subset of W3C XML Schema.
func ParseXSD(r io.Reader) (*Schema, error) { return schema.ParseXSD(r) }

// InferSchema derives a schema graph from sample documents.
func InferSchema(docs ...*Document) (*Schema, error) { return schema.Infer(docs...) }

// ParseXML parses an XML document.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// Typed execution errors (re-exported from the embedded engine).
// Match with errors.Is: a query that exceeds a budget set via
// SetLimits fails with ErrMemoryBudget or ErrRowBudget; an engine
// panic surfaces as ErrInternal instead of crashing the process.
var (
	ErrMemoryBudget = engine.ErrMemoryBudget
	ErrRowBudget    = engine.ErrRowBudget
	ErrInternal     = engine.ErrInternal
	ErrTimeout      = engine.ErrTimeout
)

// Store is a schema-aware XML store with PPF-based XPath querying.
type Store struct {
	schema      *schema.Schema
	shred       *shred.SchemaAwareStore
	tr          *core.Translator
	parallelism int
	maxMemBytes int64
	maxRows     int64
	batchSize   int
}

// SetParallelism sets the engine worker count used by Query and
// RunSQL (<= 1 means serial execution, the default). Queries repeated
// against the store reuse cached plans either way; see
// PlanCacheStats.
func (s *Store) SetParallelism(workers int) { s.parallelism = workers }

// SetLimits sets per-statement resource budgets applied to every
// subsequent Query/QueryContext/RunSQL: maxMemoryBytes bounds the
// bytes the engine may materialize (join build sides, sort buffers,
// DISTINCT sets, result rows) and maxRows bounds the produced row
// count. Zero (the default) means unlimited. Exceeding a budget fails
// that statement with ErrMemoryBudget or ErrRowBudget and leaves the
// store fully usable.
func (s *Store) SetLimits(maxMemoryBytes, maxRows int64) {
	s.maxMemBytes = maxMemoryBytes
	s.maxRows = maxRows
}

// SetBatchSize sets the engine's row-id batch capacity for every
// subsequent Query/QueryContext/RunSQL (0 or negative = the engine
// default, currently 1024). Batch size is a pure performance knob:
// results, operator statistics, and budget errors are identical at
// every setting.
func (s *Store) SetBatchSize(n int) { s.batchSize = n }

// execOpts assembles the store-level execution options.
func (s *Store) execOpts() engine.ExecOptions {
	return engine.ExecOptions{
		Parallelism:    s.parallelism,
		MaxMemoryBytes: s.maxMemBytes,
		MaxRows:        s.maxRows,
		BatchSize:      s.batchSize,
	}
}

// PeakStatementMemory reports the largest accounted memory footprint
// any single statement has reached on this store's engine, in bytes.
func (s *Store) PeakStatementMemory() int64 {
	return s.shred.DB.PeakStatementMemory()
}

// Open creates an empty store for documents conforming to the schema,
// using the paper's default translation options.
func Open(s *Schema) (*Store, error) { return OpenWithOptions(s, nil) }

// OpenWithOptions creates a store with custom translation options.
func OpenWithOptions(s *Schema, opts *Options) (*Store, error) {
	st, err := shred.NewSchemaAware(s)
	if err != nil {
		return nil, err
	}
	return &Store{schema: s, shred: st, tr: core.New(s, opts)}, nil
}

// OpenPersistent opens (or creates) a durable store rooted at dir.
// Every Load commits its document to a write-ahead log before it
// becomes visible; reopening the same directory recovers the exact
// pre-crash store state (see internal/engine.Open). The schema must
// match the one the directory was created with.
func OpenPersistent(dir string, s *Schema) (*Store, error) {
	return OpenPersistentWithOptions(dir, s, nil)
}

// OpenPersistentWithOptions is OpenPersistent with custom translation
// options.
func OpenPersistentWithOptions(dir string, s *Schema, opts *Options) (*Store, error) {
	db, err := engine.Open(dir)
	if err != nil {
		return nil, err
	}
	st, err := shred.NewSchemaAwareDB(db, s)
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	return &Store{schema: s, shred: st, tr: core.New(s, opts)}, nil
}

// Checkpoint compacts the store's write-ahead log into a checkpoint
// file so the next OpenPersistent replays less. It is a no-op on
// in-memory stores.
func (s *Store) Checkpoint() error {
	if !s.shred.DB.Persistent() {
		return nil
	}
	return s.shred.DB.Checkpoint()
}

// Close flushes and closes the store's write-ahead log. In-memory
// stores close trivially. The store must not be used after Close.
func (s *Store) Close() error { return s.shred.DB.Close() }

// Load shreds a parsed document into the store, returning its
// document id.
func (s *Store) Load(doc *Document) (int64, error) { return s.shred.Load(doc) }

// LoadXML parses and shreds a document.
func (s *Store) LoadXML(r io.Reader) (int64, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return 0, err
	}
	return s.Load(doc)
}

// SQL is the result of translating an XPath expression.
type SQL struct {
	// Text is the SQL statement in the engine dialect.
	Text string
	// Selects is the number of UNION branches (the paper's
	// SQL-splitting metric).
	Selects int
	// Joins is the number of relations referenced.
	Joins int

	stmt interface{} // sqlast.Statement, kept unexported
}

// Translate compiles an XPath query to SQL without executing it.
func (s *Store) Translate(query string) (*SQL, error) {
	tr, err := s.tr.Translate(query)
	if err != nil {
		return nil, err
	}
	return &SQL{Text: tr.SQL, Selects: tr.Selects, Joins: tr.Joins, stmt: tr.Stmt}, nil
}

// Node is one element of a query result.
type Node struct {
	// ID is the document-global node id (document order).
	ID int64
	// Dewey is the node's Dewey position in dotted notation.
	Dewey string
}

// Result holds a query's selected nodes in document order.
type Result struct {
	Nodes []Node
	// SQL is the executed statement.
	SQL string
}

// Query translates and executes an XPath query. It passes a nil
// context — not context.Background() — so the engine's nil-context
// fast path skips the per-1024-row cancellation poll entirely
// (ctxflow enforces this).
func (s *Store) Query(query string) (*Result, error) {
	return s.QueryContext(nil, query)
}

// QueryContext is Query under a context: cancellation or deadline
// expiry stops the engine mid-statement with ctx.Err().
func (s *Store) QueryContext(ctx context.Context, query string) (*Result, error) {
	tr, err := s.tr.Translate(query)
	if err != nil {
		return nil, err
	}
	res, err := s.shred.DB.RunWithOptionsContext(ctx, tr.Stmt, s.execOpts())
	if err != nil {
		return nil, fmt.Errorf("xrel: executing %q: %w", tr.SQL, err)
	}
	out := &Result{SQL: tr.SQL}
	for _, row := range res.Rows {
		n := Node{ID: row[0].I}
		if row[1].Kind == engine.KBytes {
			n.Dewey = deweyString(row[1].B)
		}
		out.Nodes = append(out.Nodes, n)
	}
	return out, nil
}

// RunSQL executes a statement of the engine dialect directly,
// returning column names and stringified rows. It exposes the
// embedded engine for inspection and tooling.
func (s *Store) RunSQL(sql string) (cols []string, rows [][]string, err error) {
	st, err := sqlast.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.shred.DB.RunWithOptions(st, s.execOpts())
	if err != nil {
		return nil, nil, err
	}
	rows = make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = make([]string, len(r))
		for j, v := range r {
			rows[i][j] = v.String()
		}
	}
	return res.Cols, rows, nil
}

// Explain renders the engine's physical operator tree for an XPath
// query without executing it.
func (s *Store) Explain(query string) (string, error) {
	tr, err := s.tr.Translate(query)
	if err != nil {
		return "", err
	}
	return s.shred.DB.Explain(tr.Stmt)
}

// ExplainAnalyze executes an XPath query under the store's limits and
// parallelism and renders the physical operator tree annotated with
// per-operator runtime statistics (rows in/out, loops, index probes,
// pattern-cache hits, memory charged, wall time).
func (s *Store) ExplainAnalyze(query string) (string, error) {
	tr, err := s.tr.Translate(query)
	if err != nil {
		return "", err
	}
	return s.shred.DB.ExplainAnalyzeWithOptions(tr.Stmt, s.execOpts())
}

// TableSizes reports "relation=rows" pairs, sorted by name.
func (s *Store) TableSizes() []string { return s.shred.DB.SortedTableSizes() }

// PathCount reports the number of distinct root-to-node paths stored
// (the size of the paper's 'paths' relation).
func (s *Store) PathCount() int { return s.shred.PathCount() }

// PlanCacheStats reports the embedded engine's prepared-plan cache
// counters: cached plans, cumulative hits, cumulative misses.
// Repeating a query against an unchanged store hits the cache and
// skips re-planning.
func (s *Store) PlanCacheStats() (size int, hits, misses uint64) {
	hits, misses = s.shred.DB.PlanCacheStats()
	return s.shred.DB.PlanCacheSize(), hits, misses
}

// ValidQuery reports whether the query parses and is translatable for
// this store's schema.
func (s *Store) ValidQuery(query string) error {
	if _, err := xpath.Parse(query); err != nil {
		return err
	}
	_, err := s.tr.Translate(query)
	return err
}

func deweyString(b []byte) string { return dewey.Pos(b).String() }
