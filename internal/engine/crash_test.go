package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dewey"
	"repro/internal/failpoint"
)

// The crash suite simulates kill -9 at the durability failpoints: a
// write fails at the armed site, the DB handle is abandoned without
// Close (no final fsync, exactly what a killed process leaves), and
// recovery reopens the directory from the surviving files. The
// recovered database must always be some atomic prefix of the commit
// history — for each site the tests pin down which prefix — and a
// second recovery over the same files must be byte-identical
// (idempotent replay).

var errCrash = errors.New("injected crash")

// seedPersistent creates a persistent DB in dir with a table, an
// index, and two committed batches; it returns the open handle.
func seedPersistent(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T",
		Column{"id", TInt}, Column{"dewey_pos", TBytes}, Column{"text", TText})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("T_dp", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		rows := make([][]Value, 10)
		for i := range rows {
			n := b*10 + i
			rows[i] = []Value{NewInt(int64(n)), NewBytes(dewey.New(1, b+1, i+1)), NewText(fmt.Sprint(n))}
		}
		if _, err := tb.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// dump renders the full content of table T in a canonical order.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	res, err := runSQL(db, "SELECT T.id, T.text FROM T ORDER BY T.id")
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, r := range res.Rows {
		out += fmt.Sprintf("%d=%s;", r[0].I, r[1].S)
	}
	return out
}

// TestCrashAtEverySite arms each durability failpoint, drives a write
// into it, abandons the handle, and recovers. The recovered state
// must be exactly the pre-write state for failures before the WAL
// frame reaches the file (wal/append), and either pre- or post-write
// for failures after the bytes were written but before they were
// acknowledged (wal/fsync) — the write-ahead contract promises
// acknowledged-implies-present, not unacknowledged-implies-absent.
func TestCrashAtEverySite(t *testing.T) {
	newRow := [][]Value{{NewInt(100), NewBytes(dewey.New(1, 9, 1)), NewText("late")}}
	for _, tc := range []struct {
		site string
		// postOK: recovery may legitimately surface the failed write.
		postOK bool
	}{
		{site: "wal/append", postOK: false},
		{site: "wal/fsync", postOK: true},
	} {
		t.Run(tc.site, func(t *testing.T) {
			defer failpoint.Reset()
			dir := t.TempDir()
			db := seedPersistent(t, dir)
			pre := dump(t, db)

			if err := failpoint.Enable(tc.site, failpoint.Return(errCrash)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Table("T").InsertBatch(newRow); !errors.Is(err, errCrash) {
				t.Fatalf("insert at armed %s: err = %v, want injected crash", tc.site, err)
			}
			// The failed commit must not be visible in the live DB either.
			if got := dump(t, db); got != pre {
				t.Fatalf("failed commit leaked into the live snapshot:\n%s\nwant %s", got, pre)
			}
			failpoint.Reset()
			// Crash: abandon db without Close, recover from the files.
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := dump(t, re)
			post := pre + "100=late;"
			switch {
			case got == pre: // clean pre-write recovery
			case tc.postOK && got == post: // unacknowledged write survived: allowed
			default:
				t.Fatalf("recovered state:\n%s\nwant pre %q%s", got, pre,
					map[bool]string{true: " or post " + post}[tc.postOK])
			}
			// The recovered DB accepts and persists new commits.
			if _, err := re.Table("T").InsertBatch([][]Value{
				{NewInt(200), NewBytes(dewey.New(1, 9, 2)), NewText("after")},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashDuringCheckpoint arms the wal/checkpoint failpoint (after
// the temporary checkpoint is fully written, before the rename) and
// checks that recovery still sees every commit via the old
// checkpoint + full WAL, ignoring the leftover .tmp file.
func TestCrashDuringCheckpoint(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	db := seedPersistent(t, dir)
	pre := dump(t, db)

	if err := failpoint.Enable("wal/checkpoint", failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, errCrash) {
		t.Fatalf("checkpoint at armed site: err = %v, want injected crash", err)
	}
	failpoint.Reset()
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); err != nil {
		t.Fatalf("crash window left no checkpoint.tmp: %v", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re); got != pre {
		t.Fatalf("recovery after torn checkpoint:\n%s\nwant %s", got, pre)
	}
	// A later successful checkpoint replaces the file and empties the
	// WAL; recovery still sees everything.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || st.Size() != 0 {
		t.Fatalf("WAL after checkpoint: size=%v err=%v, want empty", st, err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := dump(t, re2); got != pre {
		t.Fatalf("recovery from checkpoint alone:\n%s\nwant %s", got, pre)
	}
}

// TestCrashDuringRecoveryReplay arms the engine/recovery-replay
// failpoint so recovery itself dies mid-replay (a crash during crash
// recovery). Open must fail cleanly — no panic, no partially
// recovered handle — and a later unarmed Open succeeds in full.
func TestCrashDuringRecoveryReplay(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	db := seedPersistent(t, dir)
	pre := dump(t, db)

	if err := failpoint.Enable("engine/recovery-replay", failpoint.Return(errCrash)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, errCrash) {
		t.Fatalf("recovery at armed replay site: err = %v, want injected crash", err)
	}
	failpoint.Reset()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dump(t, re); got != pre {
		t.Fatalf("recovery after interrupted recovery:\n%s\nwant %s", got, pre)
	}
}

// TestDoubleReplayIdempotence recovers the same directory twice (and
// once more after a checkpoint, so replay crosses the skip-by-LSN
// path) and requires identical state each time.
func TestDoubleReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	db := seedPersistent(t, dir)
	want := dump(t, db)
	// Abandon without Close: the WAL is already fsynced per commit.

	for i := 0; i < 2; i++ {
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(t, re); got != want {
			t.Fatalf("replay %d:\n%s\nwant %s", i+1, got, want)
		}
		// Abandon again, no Close.
		_ = re
	}

	// Checkpoint, then append one more commit; replay now mixes
	// checkpointed and post-checkpoint records.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Table("T").InsertBatch([][]Value{
		{NewInt(300), NewBytes(dewey.New(1, 9, 3)), NewText("tail")},
	}); err != nil {
		t.Fatal(err)
	}
	want = dump(t, re)
	for i := 0; i < 2; i++ {
		re2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := dump(t, re2); got != want {
			t.Fatalf("post-checkpoint replay %d:\n%s\nwant %s", i+1, got, want)
		}
	}
}

// TestCreateIndexRecovery re-proves the paper's Lemmas 1-2 against a
// recovered index: a CREATE INDEX logged to the WAL must rebuild on
// replay with the same order-preserving comparator, so Dewey range
// predicates (descendant-or-self = BETWEEN d(m) AND d(m)||0xFF,
// Lemma 1; the first key past d(m)||0xFF is outside the subtree,
// Lemma 2) select exactly the same nodes as before the crash.
func TestCreateIndexRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("T", Column{"id", TInt}, Column{"dewey_pos", TBytes})
	if err != nil {
		t.Fatal(err)
	}
	// A two-level sibling-heavy shape with ordinals around the
	// component byte boundaries (0x7F/0x80, 0xFF/0x100), the
	// adversarial cases for comparator order (Section 4.2: encoded
	// Dewey order must equal document order for the lemmas to hold on
	// a B+tree scan).
	var rows [][]Value
	id := int64(0)
	for _, a := range []int{1, 2, 127, 128, 255, 256} {
		rows = append(rows, []Value{NewInt(id), NewBytes(dewey.New(1, a))})
		id++
		for _, b := range []int{1, 127, 128, 300} {
			rows = append(rows, []Value{NewInt(id), NewBytes(dewey.New(1, a, b))})
			id++
		}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// The index is created AFTER the rows exist, so recovery must
	// rebuild it from replayed rows, not replay it empty.
	if _, err := tb.CreateIndex("T_dp", "dewey_pos"); err != nil {
		t.Fatal(err)
	}
	// More rows after the index: replay must route them through the
	// recovered index too.
	var late [][]Value
	for _, a := range []int{1, 255} {
		late = append(late, []Value{NewInt(id), NewBytes(dewey.New(1, a, 500))})
		id++
	}
	if _, err := tb.InsertBatch(late); err != nil {
		t.Fatal(err)
	}

	// Components encode as fixed 3-byte big-endian ordinals:
	// d(1,2) = X'000001000002', d(1,128) = X'000001000080',
	// d(1,127)||0xFF = X'00000100007FFF'.
	queries := []string{
		// Lemma 1: descendant-or-self of /1/2 — the node + 4 children.
		"SELECT COUNT(*) FROM T WHERE T.dewey_pos BETWEEN X'000001000002' AND X'000001000002' || X'FF'",
		// The same range across the 0x7F/0x80 boundary, with the late
		// row: /1/128 + 4 children + (1,128,500)? (500 > 300, included).
		"SELECT T.id FROM T WHERE T.dewey_pos BETWEEN X'000001000080' AND X'000001000080' || X'FF' ORDER BY T.dewey_pos",
		// Lemma 2: everything following the /1/127 subtree — the
		// a in {128, 255, 256} subtrees (5 nodes each) + the late
		// (1,255,500) row; the late (1,1,500) row precedes.
		"SELECT COUNT(*) FROM T WHERE T.dewey_pos > X'00000100007F' || X'FF'",
		// Full ordered scan: document order end to end.
		"SELECT T.id FROM T ORDER BY T.dewey_pos",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = runSQL(db, q); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the pre-crash cardinalities so a wrong literal cannot make
	// the recovery comparison vacuously pass on empty ranges.
	for i, wantN := range []int64{5, 5, 16, int64(len(rows) + len(late))} {
		n := int64(len(want[i].Rows))
		if len(want[i].Rows) == 1 && len(want[i].Rows[0]) == 1 && want[i].Cols[0] == "COUNT(*)" {
			n = want[i].Rows[0][0].I
		}
		if n != wantN {
			t.Fatalf("query %d pre-crash cardinality = %d, want %d", i, n, wantN)
		}
	}

	// Crash (abandon) and recover.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt := re.Table("T")
	if rt == nil {
		t.Fatal("table T missing after recovery")
	}
	ix := rt.FindIndex(rt.ColIndex("dewey_pos"))
	if ix == nil {
		t.Fatal("index T_dp missing after recovery")
	}
	if ix.Tree.Len() != len(rows)+len(late) {
		t.Fatalf("recovered index holds %d keys, want %d", ix.Tree.Len(), len(rows)+len(late))
	}
	for i, q := range queries {
		got, err := runSQL(re, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(want[i], got) {
			t.Errorf("query %d (%s): recovered index disagrees with pre-crash result", i, q)
		}
	}
}
