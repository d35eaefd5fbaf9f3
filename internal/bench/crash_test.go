package bench

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/failpoint"
	"repro/internal/shred"
)

// The crash-smoke suite (make crash-smoke): kill a persistent store
// at every durability failpoint, recover it, and require the fig3
// workload to run oracle-identical on the recovered database. It
// closes the loop between the robustness layer and the paper's
// experiments: crash recovery is only correct here if the recovered
// relations, indexes, and paths table reproduce the native
// evaluator's answers query for query.

var errKill = errors.New("simulated kill")

// crashWorkload builds a small XMark workload once per test run.
func crashWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := NewXMark(0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// verifyRecovered runs every fig3 query against the recovered
// persistent store through the PPF translator and compares the ids
// with the native oracle.
func verifyRecovered(t *testing.T, w *Workload, db *engine.DB) {
	t.Helper()
	tr := w.NewPPFTranslator(nil)
	checked := 0
	for _, q := range w.Queries {
		want, err := w.OracleIDs(q)
		if err != nil {
			t.Fatalf("oracle %s: %v", q.ID, err)
		}
		x, err := tr.Translate(q.XPath)
		if err != nil {
			t.Fatalf("translate %s: %v", q.ID, err)
		}
		res, err := db.RunWithOptions(x.Stmt, engine.ExecOptions{})
		if err != nil {
			t.Fatalf("recovered store %s: %v", q.ID, err)
		}
		got := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = r[0].I
		}
		if !equalIDs(got, want) {
			t.Fatalf("%s on recovered store: %d ids, oracle has %d (first diff: %s)",
				q.ID, len(got), len(want), firstDiff(got, want))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("workload has no queries: the oracle check was vacuous")
	}
}

// TestCrashSmokeEverySite is the kill-and-recover matrix: for each
// durability site, load the document with the site armed to fail
// mid-commit, abandon the handle (the kill), reopen, and verify the
// full fig3 run against the oracle. If the kill aborted the only
// load, the document is loaded again after recovery first — exactly
// the retry a crashed loader performs.
func TestCrashSmokeEverySite(t *testing.T) {
	w := crashWorkload(t)
	rootRel := shred.RelName(w.Schema.Roots()[0].Name)
	for _, site := range []string{"wal/append", "wal/fsync", "wal/checkpoint", "engine/recovery-replay"} {
		t.Run(site, func(t *testing.T) {
			defer failpoint.Reset()
			dir := t.TempDir()
			db, err := engine.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st, err := shred.NewSchemaAwareDB(db, w.Schema)
			if err != nil {
				t.Fatal(err)
			}

			switch site {
			case "wal/append", "wal/fsync":
				// Kill mid-load: the document commit dies at the site.
				if err := failpoint.Enable(site, failpoint.Return(errKill)); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Load(w.Doc); !errors.Is(err, errKill) {
					t.Fatalf("load at armed %s: err = %v, want kill", site, err)
				}
			case "wal/checkpoint":
				// Kill mid-checkpoint, after a successful load.
				if _, err := st.Load(w.Doc); err != nil {
					t.Fatal(err)
				}
				if err := failpoint.Enable(site, failpoint.Return(errKill)); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); !errors.Is(err, errKill) {
					t.Fatalf("checkpoint at armed site: err = %v, want kill", err)
				}
			case "engine/recovery-replay":
				// Kill during the recovery of a crashed store.
				if _, err := st.Load(w.Doc); err != nil {
					t.Fatal(err)
				}
				if err := failpoint.Enable(site, failpoint.Return(errKill)); err != nil {
					t.Fatal(err)
				}
				if _, err := engine.Open(dir); !errors.Is(err, errKill) {
					t.Fatalf("recovery at armed site: err = %v, want kill", err)
				}
			}
			failpoint.Reset()

			// Recover (abandoning db without Close) and re-attach.
			re, err := engine.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			rst, err := shred.NewSchemaAwareDB(re, w.Schema)
			if err != nil {
				t.Fatal(err)
			}
			// Number of recovered documents = rows of the root relation.
			docs := 0
			if rt := re.Table(rootRel); rt != nil {
				docs = rt.Stats().Rows
			}
			switch docs {
			case 0:
				// The kill aborted the load atomically; retry it.
				if _, err := rst.Load(w.Doc); err != nil {
					t.Fatalf("reload after recovery: %v", err)
				}
			case 1:
				// Fully committed (or an unacknowledged-but-durable
				// wal/fsync commit): the whole document must be present,
				// which verifyRecovered proves against the oracle.
			default:
				t.Fatalf("recovered %d documents from single-document history", docs)
			}
			verifyRecovered(t, w, re)
		})
	}
}

// TestCrashSmokeTornTail simulates a kill mid-write at the file
// level: the WAL loses its final bytes (a torn frame), and recovery
// must fall back to the longest valid prefix — here, zero documents —
// then accept a clean reload that runs oracle-identical.
func TestCrashSmokeTornTail(t *testing.T) {
	w := crashWorkload(t)
	dir := t.TempDir()
	db, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shred.NewSchemaAwareDB(db, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(w.Doc); err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: chop bytes off the WAL tail.
	if err := chopTail(dir+"/wal.log", 3); err != nil {
		t.Fatal(err)
	}
	re, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst, err := shred.NewSchemaAwareDB(re, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// The torn frame held the document's single atomic commit (or its
	// tail); whatever survived must still be a loadable store.
	if rt := re.Table(shred.RelName(w.Schema.Roots()[0].Name)); rt == nil || rt.Stats().Rows == 0 {
		if _, err := rst.Load(w.Doc); err != nil {
			t.Fatalf("reload after torn tail: %v", err)
		}
	}
	verifyRecovered(t, w, re)
}

// TestConcurrentLoadAndFig3Queries is the mixed read/write -race
// regression: one writer bulk-loads documents into the store while
// readers run the fig3 queries. Every reader result must correspond
// to a whole number of committed documents — per-document result
// cardinality is constant, so any torn snapshot shows up as a
// non-multiple count.
func TestConcurrentLoadAndFig3Queries(t *testing.T) {
	w := crashWorkload(t)
	db := engine.NewDB()
	st, err := shred.NewSchemaAwareDB(db, w.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(w.Doc); err != nil {
		t.Fatal(err)
	}
	tr := w.NewPPFTranslator(nil)
	// Sequential baseline: the exact result cardinality of every query
	// at each document count 1..totalDocs. A concurrent reader pins one
	// snapshot per statement, so it must observe exactly one of these
	// cardinalities — anything else is a torn document commit. (Counts
	// are not simply perDoc*k: following-axis queries can reach across
	// documents, so each count is measured, not extrapolated.)
	const totalDocs = 7
	type cq struct {
		q    Query
		want map[int]bool // legal cardinalities, by value
		alln []int        // cardinality at k docs (index k-1)
	}
	var cqs []cq
	{
		base := engine.NewDB()
		bst, err := shred.NewSchemaAwareDB(base, w.Schema)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([][]int, len(w.Queries))
		for k := 1; k <= totalDocs; k++ {
			if _, err := bst.Load(w.Doc); err != nil {
				t.Fatal(err)
			}
			for i, q := range w.Queries {
				x, err := tr.Translate(q.XPath)
				if err != nil {
					t.Fatal(err)
				}
				res, err := base.RunWithOptions(x.Stmt, engine.ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				counts[i] = append(counts[i], len(res.Rows))
			}
		}
		for i, q := range w.Queries {
			if counts[i][0] == 0 {
				continue // empty even at 1 doc: invariant is vacuous
			}
			want := map[int]bool{}
			for _, n := range counts[i] {
				want[n] = true
			}
			cqs = append(cqs, cq{q: q, want: want, alln: counts[i]})
		}
	}
	if len(cqs) == 0 {
		t.Fatal("no fig3 query returns rows: invariant test is vacuous")
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 6; i++ {
			if _, err := st.Load(w.Doc); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				c := cqs[r%len(cqs)]
				stmt, err := tr.Translate(c.q.XPath)
				if err != nil {
					errs <- err
					return
				}
				res, err := db.RunWithOptions(stmt.Stmt, engine.ExecOptions{})
				if err != nil {
					errs <- err
					return
				}
				if !c.want[len(res.Rows)] {
					errs <- fmt.Errorf("%s: %d rows matches no whole-document count %v: torn document snapshot",
						c.q.ID, len(res.Rows), c.alln)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final state: totalDocs documents, every query at its measured
	// totalDocs cardinality.
	for _, c := range cqs {
		x, err := tr.Translate(c.q.XPath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.RunWithOptions(x.Stmt, engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != c.alln[totalDocs-1] {
			t.Errorf("%s final rows = %d, want %d", c.q.ID, len(res.Rows), c.alln[totalDocs-1])
		}
	}
}

// chopTail removes the last n bytes of the file at path.
func chopTail(path string, n int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() < n {
		n = st.Size()
	}
	return os.Truncate(path, st.Size()-n)
}
