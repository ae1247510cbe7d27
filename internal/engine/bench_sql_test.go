package engine_test

import (
	"testing"

	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
)

var viewRows []relation.Row

// BenchmarkViewReadRows is BenchmarkViewReadServe as a client sees it:
// SELECT * FROM v over a valid 2 000-row view, then Result.Rows(). It
// lives in the external test package because the statement needs the sql
// layer, which imports this one. The view's materialisation stays frozen
// between reads, so its rows are sorted by the first read and every later
// one filters the remembered order into one result slice
// (scripts/alloc-gates.sh).
func BenchmarkViewReadRows(b *testing.B) {
	e := engine.New()
	if err := e.CreateTable("t0", tuple.IntCols("id", "v")); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := e.Insert("t0", tuple.Ints(int64(i), int64(i%100)), 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	s := sql.NewSession(e, nil)
	if _, err := s.Exec("CREATE VIEW v AS SELECT * FROM t0"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec("SELECT * FROM v")
		if err != nil {
			b.Fatal(err)
		}
		if viewRows = res.Rows(); len(viewRows) != 2000 {
			b.Fatalf("%d rows", len(viewRows))
		}
	}
}
