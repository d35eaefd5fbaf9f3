package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/xrel"
)

// smallConfig shrinks a run so a test finishes in about a second.
func smallConfig(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, seed, trace
	cfg.workDir = t.TempDir()
	cfg.window = 200 * time.Millisecond
	cfg.scale, cfg.smallDocs, cfg.ckptEvery = 0.03, 6, 4
	cfg.setupReps, cfg.reopenReps, cfg.profileReps = 1, 1, 1
	return cfg
}

// faultStore corrupts or fails selected calls of the store it wraps,
// counting every fault it injects.
type faultStore struct {
	store
	corrupt   string // answers to this query lose their last node
	queryErrN int64  // every queryErrN-th query fails
	loadErrN  int64  // every loadErrN-th load after the base document fails
	queries   int64
	loads     int64
	injected  *atomic.Int64
}

var errInjected = errors.New("injected store error")

func (f *faultStore) Query(q string) (*xrel.Result, error) {
	f.queries++
	if f.queryErrN > 0 && f.queries%f.queryErrN == 0 {
		f.injected.Add(1)
		return nil, errInjected
	}
	res, err := f.store.Query(q)
	if err == nil && q == f.corrupt && len(res.Nodes) > 0 {
		f.injected.Add(1)
		res.Nodes = res.Nodes[:len(res.Nodes)-1]
	}
	return res, err
}

func (f *faultStore) Load(doc *xmltree.Document) (int64, error) {
	f.loads++
	if f.loadErrN > 0 && f.loads > 1 && (f.loads-1)%f.loadErrN == 0 {
		f.injected.Add(1)
		return 0, errInjected
	}
	return f.store.Load(doc)
}

// runWithFaults runs a small xmark-hot workload whose store injects
// the given faults, returning the result and the faults injected.
func runWithFaults(t *testing.T, fault faultStore) (*result, int64) {
	cfg := smallConfig(t, hot, 1, false)
	var injected atomic.Int64
	open := cfg.openStore
	cfg.openStore = func(dir string) (store, error) {
		st, err := open(dir)
		if err != nil {
			return nil, err
		}
		f := fault
		f.store, f.injected = st, &injected
		return &f, nil
	}
	res, err := measure(cfg, io.Discard)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.Correct != (res.Failed == 0) || res.Attempted <= res.Failed {
		t.Errorf("correct %v, failed %d, attempted %d", res.Correct, res.Failed, res.Attempted)
	}
	return res, injected.Load()
}

// TestFailuresAreCounted checks that every injected fault adds exactly
// one failure to a run that counts none without faults.
func TestFailuresAreCounted(t *testing.T) {
	clean, _ := runWithFaults(t, faultStore{})
	if clean.Failed != 0 {
		t.Fatalf("%d failures without faults", clean.Failed)
	}
	for _, tc := range []struct {
		name  string
		fault faultStore
	}{
		{name: "corrupted answer", fault: faultStore{corrupt: xmark.Queries[0].XPath}},
		{name: "query error", fault: faultStore{queryErrN: 7}},
		{name: "load error", fault: faultStore{loadErrN: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, injected := runWithFaults(t, tc.fault)
			if injected < 2 {
				t.Fatalf("%d faults injected", injected)
			}
			if want := clean.Failed + injected; res.Failed != want {
				t.Errorf("failed = %d, want %d (%d without faults, %d injected)", res.Failed, want, clean.Failed, injected)
			}
		})
	}
}

// TestIngestCountsAtomicityViolations feeds the snapshot-atomicity
// check answers that match no whole number of loaded documents.
func TestIngestCountsAtomicityViolations(t *testing.T) {
	cfg := smallConfig(t, ingest, 1, false)
	r := &run{cfg: cfg, hotWant: [][]int64{{1, 2, 3}}, hotSmall: []int{2}}
	q := query{text: "q", hot: 0}
	for _, tc := range []struct {
		n, lo, hi int64
		ok        bool
	}{
		{3, 0, 0, true}, {5, 0, 1, true}, {7, 1, 2, true}, {5, 2, 3, false}, {4, 0, 3, false},
	} {
		before := r.failed.Load()
		r.checkGrowth(q, &xrel.Result{Nodes: make([]xrel.Node, tc.n)}, nil, tc.lo, tc.hi)
		if counted := r.failed.Load() - before; counted != map[bool]int64{true: 0, false: 1}[tc.ok] {
			t.Errorf("%d nodes with k in [%d,%d]: counted %d failures", tc.n, tc.lo, tc.hi, counted)
		}
	}
	r.checkGrowth(q, nil, errInjected, 0, 0)
	if r.failed.Load() != 3 {
		t.Errorf("failed = %d after an errored query, want 3", r.failed.Load())
	}
}

// exactCounts are the inputs and counters that must repeat exactly
// for a seed.
type exactCounts struct {
	Probes      []float64
	RowsPerDoc  float64
	WALPerLoad  float64
	DocBytes    int64
	HotStream   []string
	AdhocStream []string
}

func countsFor(t *testing.T, seed int64) exactCounts {
	cfg := smallConfig(t, hot, seed, true)
	r, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := r.perLayerValues()
	var c exactCounts
	for _, q := range xmark.Queries {
		c.Probes = append(c.Probes, v["engine.index_probes."+q.ID])
	}
	c.RowsPerDoc, c.WALPerLoad = v["shred.rows_per_doc"], v["wal.bytes_per_commit"]
	doc, size, err := genDoc(cfg.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.DocBytes = size
	hs, as := newHotStream(seed), newAdhocStream(seed, adhocPool(doc))
	for range 40 {
		c.HotStream = append(c.HotStream, hs.next().text)
		c.AdhocStream = append(c.AdhocStream, as.next().text)
	}
	return c
}

func TestSeedDeterminesInputsAndCounts(t *testing.T) {
	a, b, other := countsFor(t, 1), countsFor(t, 1), countsFor(t, 2)
	if a.RowsPerDoc == 0 || a.WALPerLoad == 0 {
		t.Fatalf("exact counts missing: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different inputs or counts:\n%+v\n%+v", a, b)
	}
	for _, tc := range []struct {
		what         string
		seed1, seed2 any
	}{
		{"index probes", a.Probes, other.Probes},
		{"rows per document", a.RowsPerDoc, other.RowsPerDoc},
		{"WAL bytes per commit", a.WALPerLoad, other.WALPerLoad},
		{"document", a.DocBytes, other.DocBytes},
		{"hot stream", a.HotStream, other.HotStream},
		{"ad-hoc stream", a.AdhocStream, other.AdhocStream},
	} {
		if reflect.DeepEqual(tc.seed1, tc.seed2) {
			t.Errorf("seed 2 left the %s unchanged: %v", tc.what, tc.seed2)
		}
	}
}

func TestGeneratedDocumentsRepeat(t *testing.T) {
	var xml [2]bytes.Buffer
	for i := range xml {
		doc, _, err := genDoc(0.02, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.WriteXML(&xml[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(xml[0].Bytes(), xml[1].Bytes()) {
		t.Error("one seed generated two different documents")
	}
}

// TestDeclarationMatchesCode keeps BENCHMARK.json's metric and workload
// names and units equal to what the program reports.
func TestDeclarationMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		if !slices.Contains(workloads, name) {
			t.Errorf("declared workload %s is not one the program runs", name)
		}
	}
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		specs    []metricSpec
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer()}} {
		if len(tc.declared) != len(tc.specs) {
			t.Errorf("%s: %d declared, %d reported", tc.kind, len(tc.declared), len(tc.specs))
			continue
		}
		for i, m := range tc.specs {
			if d := tc.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", tc.kind, i, d.Name, d.Unit, m.name, m.unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4, 5], n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * d
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", base, "no worse"},
		{"faster", shift(0.8), "improved"},
		{"slightly slower", shift(1.03), "no worse"},
		{"slower", shift(1.2), "worse"},
		{"noisy", wide, "unresolved"},
	} {
		if got := judge(base, tc.change, true, 0.1).call; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := judge(base, shift(1.2), false, 0.1).call; got != "improved" {
		t.Errorf("higher-is-better gain: verdict %q", got)
	}
}

func TestExplainCounts(t *testing.T) {
	text := "project [loops=1 in=3 out=3 probes=0 time=1µs]\n" +
		"  scan a: index lookup a_pk [loops=1 in=0 out=5 probes=5 est_rows=4 q=1.2 time=2µs]\n" +
		"    scan b: index lookup b_par [loops=5 in=0 out=7 probes=12 time=3µs]\n" +
		"total: rows=3 peak-mem=120B\n"
	p, out, rows := explainCounts(text)
	if p != 17 || out != 15 || rows != 3 {
		t.Errorf("explainCounts = %d probes, %d out, %d rows; want 17, 15, 3", p, out, rows)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(xs, 95); math.Abs(got-4.8) > 1e-9 {
		t.Errorf("p95 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

// TestIngestRuns drives the concurrent reader and writer in both modes
// (run it with -race): every load must commit and the traced run must
// see plan-cache misses from the commits.
func TestIngestRuns(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := smallConfig(t, ingest, 1, trace)
		r, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.loadMs) != cfg.smallDocs || len(r.queryLat) == 0 || len(r.recoveryS) != cfg.reopenReps {
			t.Errorf("trace %v: %d loads, %d queries, %d reopens", trace, len(r.loadMs), len(r.queryLat), len(r.recoveryS))
		}
		if trace && r.perLayerValues()["engine.plan_cache.misses"] == 0 {
			t.Errorf("no plan-cache misses although documents were committed during the window")
		}
	}
}
