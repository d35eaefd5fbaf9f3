package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlast"
)

// q6Rows synthesizes ORDER BY key vectors shaped like Q6's
// DISTINCT+ORDER BY output (a text column plus an integer id), the
// workload the memcomparable sort path targets.
func q6Rows(n int) []orderedRow {
	rows := make([]orderedRow, n)
	rnd := uint64(0x9E3779B97F4A7C15)
	for i := range rows {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		text := NewText(fmt.Sprintf("item-%05d", rnd%5000))
		id := NewInt(int64(rnd % 100000))
		rows[i] = orderedRow{row: []Value{text, id}, keys: []Value{text, id}}
	}
	return rows
}

// BenchmarkSortRowsEncoded measures the memcomparable-key sort used
// when key kinds are uniform: one encode pass, then bytes.Compare.
func BenchmarkSortRowsEncoded(b *testing.B) {
	src := q6Rows(4096)
	desc := []bool{false, true}
	work := make([]orderedRow, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sortRows(work, desc)
	}
}

// BenchmarkSortRowsGeneric measures the fallback value-by-value
// comparison sort on the same rows (the pre-change behavior).
func BenchmarkSortRowsGeneric(b *testing.B) {
	src := q6Rows(4096)
	desc := []bool{false, true}
	work := make([]orderedRow, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sortRowsGeneric(work, desc)
	}
}

// BenchmarkDistinctOrderByQuery runs a whole Q6-shaped
// DISTINCT+ORDER BY query end to end (dedup via rowKey plus the sort)
// against the multi-morsel synthetic database.
func BenchmarkDistinctOrderByQuery(b *testing.B) {
	db := bigDB(b)
	st, err := sqlast.Parse("SELECT DISTINCT i.text, i.path_id FROM item i ORDER BY i.text, i.path_id")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.RunWithOptions(st, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
