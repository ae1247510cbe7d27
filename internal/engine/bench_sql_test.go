package engine_test

import (
	"math/rand"
	"testing"

	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

var viewRows []relation.Row

// BenchmarkViewReadRows is BenchmarkViewReadServe as a client sees it:
// SELECT * FROM v over a valid 2 000-row view, then Result.Rows(). It
// lives in the external test package because the statement needs the sql
// layer, which imports this one. The second read lays the materialisation
// out in tuple order, and every later one hands out its rows, all alive,
// with no copy (scripts/alloc-gates.sh).
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

// BenchmarkViewReadDrained is BenchmarkViewReadRows once every row of the
// view has expired: "drained" reads a 2 000-row materialisation whose rows
// all died under it, "empty" one materialised over an empty table. A kept
// answer sheds its dead rows at the first read that finds one, so the read
// after the drain compacts it and every later one walks nothing: the two
// cost the same (scripts/alloc-gates.sh).
func BenchmarkViewReadDrained(b *testing.B) {
	for _, rows := range []int{2000, 0} {
		name := map[int]string{2000: "drained", 0: "empty"}[rows]
		b.Run(name, func(b *testing.B) {
			e := engine.New()
			if err := e.CreateTable("t0", tuple.IntCols("id", "v")); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := e.Insert("t0", tuple.Ints(int64(i), int64(i%100)), xtime.Time(1+i%50)); err != nil {
					b.Fatal(err)
				}
			}
			s := sql.NewSession(e, nil)
			if _, err := s.Exec("CREATE VIEW v AS SELECT * FROM t0"); err != nil {
				b.Fatal(err)
			}
			if err := e.Advance(100); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Exec("SELECT * FROM v")
				if err != nil {
					b.Fatal(err)
				}
				if viewRows = res.Rows(); len(viewRows) != 0 {
					b.Fatalf("%d rows", len(viewRows))
				}
			}
		})
	}
}

// BenchmarkViewReadTicks is one tick of a view read while its rows expire:
// an ADVANCE under which one row of a 2 000-row view dies, then eight
// SELECT * FROM v + Rows(). The first read of the tick sheds the dead row
// into a new in-order store (one Merge: slot array, texps, header), and it
// and the seven after it hand out that store's rows with no copy; while a
// store kept its dead rows until they outnumbered the live, each of the
// eight copied the live rows (scripts/alloc-gates.sh). Every 100 ticks the
// view is refilled to 2 000 rows, untimed: 100 inserts and a REFRESH VIEW.
func BenchmarkViewReadTicks(b *testing.B) {
	const size, refill = 2000, 100
	e := engine.New()
	if err := e.CreateTable("t0", tuple.IntCols("id", "v")); err != nil {
		b.Fatal(err)
	}
	s := sql.NewSession(e, nil)
	if _, err := s.Exec("CREATE VIEW v AS SELECT * FROM t0"); err != nil {
		b.Fatal(err)
	}
	// Row id expires at id+1: at tick t the rows t … t+size-1 are alive.
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%refill == 0 {
			b.StopTimer()
			for ; next < i+size; next++ {
				if err := e.Insert("t0", tuple.Ints(int64(next), int64(next%100)), xtime.Time(next+1)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Exec("REFRESH VIEW v"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := e.Advance(xtime.Time(i + 1)); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			res, err := s.Exec("SELECT * FROM v")
			if err != nil {
				b.Fatal(err)
			}
			if viewRows = res.Rows(); len(viewRows) != size-1-i%refill {
				b.Fatalf("tick %d: %d rows", i+1, len(viewRows))
			}
		}
	}
}

// benchRecompute times REFRESH VIEW over the view_maintenance tables at the
// given size: pol(uid, deg) with polRows rows in the given number of deg
// groups and el with half as many, lifetimes spread so that equal
// expiration times, duplicates under π[uid] and critical tuples all occur.
func benchRecompute(b *testing.B, polRows, groups int, query string) {
	e := engine.New()
	s := sql.NewSession(e, nil)
	for _, ddl := range []string{"CREATE TABLE pol (uid INT, deg INT)", "CREATE TABLE el (uid INT, deg INT)"} {
		if _, err := s.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(18))
	users := int64(float64(polRows) / 0.9)
	for i := 0; i < polRows; i++ {
		t := tuple.Ints(rng.Int63n(users), rng.Int63n(int64(groups)))
		if err := e.Insert("pol", t, xtime.Time(1+rng.Int63n(int64(3*polRows)))); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			t = tuple.Ints(rng.Int63n(users), rng.Int63n(int64(groups)))
			if err := e.Insert("el", t, xtime.Time(1+rng.Int63n(int64(3*polRows)))); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.Exec("CREATE MATERIALIZED VIEW v AS " + query); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("REFRESH VIEW v"); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	histQuery = "SELECT deg, COUNT(*) FROM pol GROUP BY deg"
	diffQuery = "SELECT uid FROM pol EXCEPT SELECT uid FROM el"
)

// BenchmarkViewRecomputeHist and BenchmarkViewRecomputeDiff are what CREATE
// and REFRESH pay for a view that keeps its future (and what a read paid
// whenever such a view invalidated, before it did): one evaluation pass that
// yields the rows, texp(e) and the births together. Sized (500 / 250 rows, 20
// groups) for scripts/alloc-gates.sh; BenchmarkViewRecomputeFull runs the
// same two statements at the load benchmark's size.
func BenchmarkViewRecomputeHist(b *testing.B) { benchRecompute(b, 500, 20, histQuery) }

func BenchmarkViewRecomputeDiff(b *testing.B) { benchRecompute(b, 500, 20, diffQuery) }

func BenchmarkViewRecomputeFull(b *testing.B) {
	b.Run("hist", func(b *testing.B) { benchRecompute(b, 5000, 100, histQuery) })
	b.Run("diff", func(b *testing.B) { benchRecompute(b, 5000, 100, diffQuery) })
}

// BenchmarkViewReadBirth is the read that replaced those recomputations: a
// 20-group histogram view over 500 rows that keeps its future is read at the
// instant its next birth falls due, so every timed read applies one batch of
// births (one, or the few that share the instant) and none recomputes. What
// it allocates is the new in-order store the rows born are merged into, the
// escaped snapshots keeping the old one: it follows the view's size, once per
// batch, never the base table (scripts/alloc-gates.sh). Advancing the clock, and reloading
// the table once the stored future is used up, are not timed.
func BenchmarkViewReadBirth(b *testing.B) {
	e := engine.New()
	s := sql.NewSession(e, nil)
	if _, err := s.Exec("CREATE TABLE pol (uid INT, deg INT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Exec("CREATE MATERIALIZED VIEW v AS " + histQuery); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	uid, next := int64(0), xtime.Infinity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if next == xtime.Infinity {
			for r := 0; r < 500; r++ {
				uid++
				if err := e.Insert("pol", tuple.Ints(uid, rng.Int63n(20)), e.Now()+xtime.Time(1+rng.Int63n(1500))); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.RefreshView("v"); err != nil {
				b.Fatal(err)
			}
			_, info, err := e.ReadView("v")
			if err != nil {
				b.Fatal(err)
			}
			next = info.Validity.ValidUntil
		}
		if err := e.Advance(next); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, info, err := e.ReadView("v")
		if err != nil || info.PatchesApplied == 0 || info.Source != view.SourceMaterialised {
			b.Fatalf("read at %v: %+v, %v", next, info, err)
		}
		next = info.Validity.ValidUntil
	}
}

// benchRead times one uncached SELECT, Rows() included, over the load
// benchmark's session tables: sess(sid, uid, score) with sessRows rows whose
// score is uniform on [0, 100 000) and usr(uid, grp) with usrRows rows in 25
// groups. Any index DDL runs after the load.
func benchRead(b *testing.B, sessRows, usrRows int, query string, indexDDL ...string) {
	e := engine.New(engine.WithResultCache(0))
	s := sql.NewSession(e, nil)
	for _, ddl := range []string{"CREATE TABLE sess (sid INT, uid INT, score INT)", "CREATE TABLE usr (uid INT, grp INT)"} {
		if _, err := s.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for uid := 0; uid < usrRows; uid++ {
		if err := e.Insert("usr", tuple.Ints(int64(uid), int64(uid%25)), xtime.Infinity); err != nil {
			b.Fatal(err)
		}
	}
	for sid := 0; sid < sessRows; sid++ {
		t := tuple.Ints(int64(sid), rng.Int63n(int64(usrRows)), rng.Int63n(100_000))
		if err := e.Insert("sess", t, xtime.Time(1+rng.Int63n(1_000_000))); err != nil {
			b.Fatal(err)
		}
	}
	for _, ddl := range indexDDL {
		if _, err := s.Exec(ddl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(query)
		if err != nil {
			b.Fatal(err)
		}
		if viewRows = res.Rows(); len(viewRows) == 0 {
			b.Fatal("no rows")
		}
	}
}

const (
	rangeQuery = "SELECT * FROM sess WHERE score >= 40000 AND score < 42000"
	joinQuery  = "SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = 7 AND sess.score >= "
	// sessDiffQuery is remote_reads' EXCEPT: the 20 users of a group less those
	// with a session in a fifth of the scores, about 1 000 of 5 000 rows.
	sessDiffQuery = "SELECT uid FROM usr WHERE grp = 7 EXCEPT SELECT uid FROM sess WHERE score >= 40000 AND score < 60000"
	// diffLeftQuery's left side, 5 000 sessions, outnumbers the right
	// side's base, 500 users, so scanning only the users it meets skips none.
	diffLeftQuery = "SELECT sid FROM sess EXCEPT SELECT uid FROM usr WHERE grp = 7"
)

// BenchmarkScanFilter and BenchmarkJoinProbe are the two statements most of
// a remote_reads or dashboard_reads miss is made of: a range selection that
// scans 2 000 rows to return about 40, and a join that streams 2 000 rows
// through a selection and a hash probe against the 20 rows of usr in one
// group, to return about 40 as well. What they allocate follows the rows
// they return and the build side, never the rows they scan or probe. Sized
// for scripts/alloc-gates.sh; BenchmarkReadFull runs the same statements at
// the load benchmark's sizes.
func BenchmarkScanFilter(b *testing.B) { benchRead(b, 2000, 500, rangeQuery) }

func BenchmarkJoinProbe(b *testing.B) { benchRead(b, 2000, 500, joinQuery+"50000") }

func BenchmarkReadFull(b *testing.B) {
	b.Run("range5000", func(b *testing.B) { benchRead(b, 5000, 500, rangeQuery) })
	b.Run("join5000", func(b *testing.B) { benchRead(b, 5000, 500, joinQuery+"50000") })
	b.Run("diff5000", func(b *testing.B) { benchRead(b, 5000, 500, sessDiffQuery) })
	b.Run("diffleft5000", func(b *testing.B) { benchRead(b, 5000, 500, diffLeftQuery) })
	b.Run("join20000indexed", func(b *testing.B) {
		benchRead(b, 20000, 2000, joinQuery+"75000",
			"CREATE INDEX sess_sid ON sess (sid)", "CREATE INDEX sess_score ON sess (score) USING ORDERED")
	})
}
