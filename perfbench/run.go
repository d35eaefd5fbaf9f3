package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/native"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/xrel"
)

const (
	hot    = "xmark-hot"
	adhoc  = "xmark-adhoc"
	ingest = "xmark-ingest"
)

var workloads = []string{hot, adhoc, ingest}

// store is what a run drives: *xrel.Store in the measured run, the
// traced split in the traced run, and fault-injecting wrappers in
// tests.
type store interface {
	Query(q string) (*xrel.Result, error)
	Load(doc *xmltree.Document) (int64, error)
	Checkpoint() error
	Close() error
	TableSizes() []string
}

// config fixes everything a run does besides its seed. defaultConfig
// holds the benchmark's settings; tests shrink the sizes.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workDir  string

	scale      float64 // base document
	smallScale float64 // each document the writer loads
	smallDocs  int     // documents the writer loads per run
	ckptEvery  int     // the writer checkpoints after this many loads
	setupReps  int     // setups per run; setup_s is their median
	reopenReps int     // reopens per run; recovery_s is their median
	// profileReps is how often the traced run times each hot query
	// for its per-query medians.
	profileReps int

	// openStore opens the measured run's store; tests wrap it.
	openStore func(dir string) (store, error)
}

func defaultConfig() config {
	return config{
		scale:       0.5,
		smallScale:  0.001,
		smallDocs:   150,
		ckptEvery:   48,
		setupReps:   7,
		reopenReps:  5,
		profileReps: 5,
		openStore: func(dir string) (store, error) {
			return xrel.OpenPersistent(dir, xmark.Schema())
		},
	}
}

// run is one workload execution.
type run struct {
	cfg config
	dir string
	st  store
	ts  *tracedStore // the traced run's store, nil when measuring

	reader, writer *recorder

	small             *xmltree.Document
	baseXML, smallXML int64
	hotWant           [][]int64 // hot answers on the base document
	hotSmall          []int     // hot answer sizes on one small document
	adhocWant         map[string][]int64
	adhocPool         []string

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string

	// windowFrom and windowTo bound the measured window on the
	// recorders' clock.
	windowFrom, windowTo int64
	setupS               []float64
	heapMB               float64
	queryLat             []time.Duration
	windowS              float64
	loadMs               []float64
	walDelta             []int64
	rowsDelta            []int64
	ckptBytes            []int64
	diskBytes            int64
	walAtOpen            int64
	recoveryS            []float64

	// traced-run measurements
	profile               []hotProfile
	allocs, gcs, ops      uint64
	replans, peakMem      int64
	hits, misses          uint64
	untracedNs, untracedN int64
	spans                 []span
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) open(dir string) (store, error) {
	if !r.cfg.trace {
		return r.cfg.openStore(dir)
	}
	ts, err := openTraced(dir, r.reader, r.writer)
	if err != nil {
		return nil, err
	}
	r.ts = ts
	return ts, nil
}

// execute runs one workload end to end. An error means the run could
// not be carried out at all; wrong or failed operations are counted
// instead.
func execute(cfg config) (*run, error) {
	r := &run{cfg: cfg}
	epoch := time.Now()
	r.reader, r.writer = newRecorder(epoch, 0), newRecorder(epoch, 1<<30)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	base, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if r.st != nil {
			_ = r.st.Close() // error path: the run's error is reported instead
		}
	}()
	if err := r.prepareOracle(base); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / 1e6
	if r.ts != nil {
		if r.profile, err = r.ts.profileHot(cfg.profileReps); err != nil {
			return nil, err
		}
	}

	if cfg.workload != adhoc {
		r.warmUp()
	}
	if r.ts != nil {
		r.ts.calls, r.ts.hits, r.ts.misses, r.ts.untracedNs, r.ts.untracedN = 0, 0, 0, 0, 0
		r.replans = -int64(r.ts.db.AdaptiveReplans())
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocs0, gcs0 := ms.Mallocs, ms.NumGC
	switch cfg.workload {
	case hot, adhoc:
		r.readLoop(nil, nil)
	case ingest:
		r.ingestWindow()
	}
	runtime.ReadMemStats(&ms)
	r.allocs, r.gcs = ms.Mallocs-allocs0, uint64(ms.NumGC-gcs0)
	r.ops = uint64(len(r.queryLat) + len(r.loadMs))
	if r.ts != nil {
		r.replans += int64(r.ts.db.AdaptiveReplans())
		r.peakMem = r.ts.db.PeakStatementMemory()
		r.hits, r.misses = r.ts.hits, r.ts.misses
		r.untracedNs, r.untracedN = r.ts.untracedNs, r.ts.untracedN
	}
	if cfg.workload != ingest {
		runtime.GC()
		var started, acked atomic.Int64
		r.writeDocs(0, &started, &acked)
	}

	if err := r.reopen(); err != nil {
		return nil, err
	}
	if r.ts != nil {
		r.spans = mergeSpans(r.reader, r.writer)
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl.gz", cfg.workload, cfg.seed))
		if err := writeSpans(path, r.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// setup generates the base document and loads it into a fresh
// persistent store, setupReps times; the last store is kept.
func (r *run) setup() (*xmltree.Document, error) {
	var base *xmltree.Document
	for i := 0; i < r.cfg.setupReps; i++ {
		if r.st != nil {
			err := r.st.Close()
			r.st, base = nil, nil
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		dir, err := os.MkdirTemp(r.cfg.workDir, "store-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		start := time.Now()
		base, r.baseXML, err = genDoc(r.cfg.scale, r.cfg.seed)
		if err == nil {
			r.st, err = r.open(dir)
		}
		if err == nil {
			_, err = r.st.Load(base)
		}
		if err != nil {
			if r.st != nil {
				_ = r.st.Close() // the set-up error is the one to report
				r.st = nil
			}
			os.RemoveAll(dir)
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
	}
	// The trace covers the workload, not its set-up.
	r.reader.spans, r.writer.spans = r.reader.spans[:0], r.writer.spans[:0]
	return base, nil
}

// prepareOracle computes every expected answer outside the timed
// region, with the native evaluator over the generated documents.
func (r *run) prepareOracle(base *xmltree.Document) error {
	var err error
	r.small, r.smallXML, err = genDoc(r.cfg.smallScale, r.cfg.seed+smallSeedOffset)
	if err != nil {
		return err
	}
	ev, evSmall := native.New(base), native.New(r.small)
	for _, q := range xmark.Queries {
		want, err := oracleIDs(ev, q.XPath)
		if err != nil {
			return err
		}
		small, err := oracleIDs(evSmall, q.XPath)
		if err != nil {
			return err
		}
		r.hotWant = append(r.hotWant, want)
		r.hotSmall = append(r.hotSmall, len(small))
	}
	if r.cfg.workload == adhoc {
		r.adhocPool = adhocPool(base)
		r.adhocWant = make(map[string][]int64, len(r.adhocPool))
		for _, q := range r.adhocPool {
			if r.adhocWant[q], err = oracleIDs(ev, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// warmUp runs one untimed pass over the hot mix, so the measured
// window starts with every hot plan cached.
func (r *run) warmUp() {
	for i, q := range xmark.Queries {
		r.attempted.Add(1)
		res, err := r.st.Query(q.XPath)
		r.checkExact(q.XPath, res, err, r.hotWant[i])
	}
}

// readLoop is the closed-loop client: it issues the workload's next
// query as soon as the previous one returns, until the window ends.
// With commit counters (xmark-ingest) each answer is checked by the
// snapshot-atomicity rule instead of against the fixed base answer.
func (r *run) readLoop(started, acked *atomic.Int64) {
	var next func() query
	if r.cfg.workload == adhoc {
		next = newAdhocStream(r.cfg.seed, r.adhocPool).next
	} else {
		next = newHotStream(r.cfg.seed).next
	}
	r.windowFrom = r.reader.now()
	start := time.Now()
	deadline := start.Add(r.cfg.window)
	for time.Now().Before(deadline) {
		q := next()
		var lo int64
		if acked != nil {
			lo = acked.Load()
		}
		t0 := time.Now()
		res, err := r.st.Query(q.text)
		r.queryLat = append(r.queryLat, time.Since(t0))
		r.attempted.Add(1)
		switch {
		case acked != nil:
			r.checkGrowth(q, res, err, lo, started.Load())
		case q.hot >= 0:
			r.checkExact(q.text, res, err, r.hotWant[q.hot])
		default:
			r.checkExact(q.text, res, err, r.adhocWant[q.text])
		}
	}
	r.windowS = time.Since(start).Seconds()
	r.windowTo = r.reader.now()
}

func (r *run) checkExact(q string, res *xrel.Result, err error, want []int64) {
	if err != nil {
		r.fail("%s: %v", q, err)
		return
	}
	if got := nodeIDs(res); !sameIDs(got, want) {
		r.fail("%s: %d ids, oracle has %d", q, len(got), len(want))
	}
}

// checkGrowth applies the snapshot-atomicity rule: an answer reflects
// the base document plus k whole small documents, where k lies between
// the loads acknowledged before the call and those started by its end.
func (r *run) checkGrowth(q query, res *xrel.Result, err error, lo, hi int64) {
	if err != nil {
		r.fail("%s: %v", q.text, err)
		return
	}
	r.checkCount(q.hot, int64(len(res.Nodes)), lo, hi)
}

// checkCount checks the size n of hot query i's answer against the
// base document plus k small documents, for some k in [lo, hi].
func (r *run) checkCount(i int, n, lo, hi int64) {
	base, small := int64(len(r.hotWant[i])), int64(r.hotSmall[i])
	for k := lo; k <= hi; k++ {
		if n == base+k*small {
			return
		}
	}
	r.fail("%s: %d nodes, want %d + k*%d for k in [%d,%d]", xmark.Queries[i].XPath, n, base, small, lo, hi)
}

func nodeIDs(res *xrel.Result) []int64 {
	ids := make([]int64, len(res.Nodes))
	for i, n := range res.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// ingestWindow runs the reader for the window while one writer loads
// the small documents at an even pace across it.
func (r *run) ingestWindow() {
	var started, acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.writeDocs(r.cfg.window/time.Duration(r.cfg.smallDocs), &started, &acked)
	}()
	r.readLoop(&started, &acked)
	wg.Wait()
}

// writeDocs loads smallDocs copies of the small document, one commit
// each, the i-th no earlier than interval*i after the call,
// checkpointing after every ckptEvery loads.
func (r *run) writeDocs(interval time.Duration, started, acked *atomic.Int64) {
	start := time.Now()
	for i := 0; i < r.cfg.smallDocs; i++ {
		if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
			time.Sleep(wait)
		}
		wal0 := r.fileSize("wal.log")
		var rows0 int64
		if r.ts != nil {
			rows0 = r.ts.rows()
		}
		r.attempted.Add(1)
		started.Add(1)
		t0 := time.Now()
		_, err := r.st.Load(r.small)
		d := time.Since(t0)
		if err != nil {
			r.fail("load %d: %v", i, err)
			continue
		}
		acked.Add(1)
		r.loadMs = append(r.loadMs, float64(d)/1e6)
		r.walDelta = append(r.walDelta, r.fileSize("wal.log")-wal0)
		if r.ts != nil {
			r.rowsDelta = append(r.rowsDelta, r.ts.rows()-rows0)
		}
		if (i+1)%r.cfg.ckptEvery == 0 {
			r.attempted.Add(1)
			if err := r.st.Checkpoint(); err != nil {
				r.fail("checkpoint after load %d: %v", i, err)
				continue
			}
			r.ckptBytes = append(r.ckptBytes, r.fileSize("checkpoint"))
		}
	}
}

// hotAnswers runs every hot query once, for the reopen comparison.
func (r *run) hotAnswers() [][]int64 {
	out := make([][]int64, len(xmark.Queries))
	for i, q := range xmark.Queries {
		r.attempted.Add(1)
		res, err := r.st.Query(q.XPath)
		if err != nil {
			r.fail("%s: %v", q.XPath, err)
			continue
		}
		out[i] = nodeIDs(res)
	}
	return out
}

// reopen closes the store, measures its footprint, reopens it
// reopenReps times (recovery) and checks that the recovered store holds
// every relation's rows as before the close. On xmark-ingest, every hot
// answer before the close must also reflect all acknowledged loads, and
// the recovered store must answer every hot query exactly as before.
// xmark-hot and xmark-adhoc query only the single base document: they
// issue no query once the small documents are loaded, because Q10's
// following:: step still crosses documents (README, Answer checking).
func (r *run) reopen() error {
	var before [][]int64
	if r.cfg.workload == ingest {
		before = r.hotAnswers()
		loaded := int64(len(r.loadMs))
		for i, ids := range before {
			if ids != nil {
				r.checkCount(i, int64(len(ids)), loaded, loaded)
			}
		}
	}
	sizes := r.st.TableSizes()
	for i := 0; i < r.cfg.reopenReps; i++ {
		err := r.st.Close()
		r.st = nil
		if err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
		if i == 0 {
			r.walAtOpen = r.fileSize("wal.log")
			r.diskBytes = r.walAtOpen + r.fileSize("checkpoint")
		}
		runtime.GC()
		start := time.Now()
		if r.st, err = r.open(r.dir); err != nil {
			return fmt.Errorf("reopening store: %w", err)
		}
		r.recoveryS = append(r.recoveryS, time.Since(start).Seconds())
	}
	r.attempted.Add(1)
	if got := r.st.TableSizes(); !slices.Equal(got, sizes) {
		r.fail("relation sizes after reopen %v, before close %v", got, sizes)
	}
	if before != nil {
		after := r.hotAnswers()
		for i, q := range xmark.Queries {
			if before[i] != nil && after[i] != nil && !sameIDs(before[i], after[i]) {
				r.fail("%s after reopen: %d ids, %d before close", q.XPath, len(after[i]), len(before[i]))
			}
		}
	}
	err := r.st.Close()
	r.st = nil
	return err
}

// fileSize is the size of a file in the store directory, 0 when the
// file does not exist.
func (r *run) fileSize(name string) int64 {
	fi, err := os.Stat(filepath.Join(r.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		r.fail("stat %s: %v", name, err)
		return 0
	}
	return fi.Size()
}
