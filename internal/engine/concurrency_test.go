package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// TestConcurrentInsertQueryAdvance hammers the engine from several
// goroutines while the clock advances; run with -race.
func TestConcurrentInsertQueryAdvance(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id", "v")); err != nil {
		t.Fatal(err)
	}
	if err := e.OnExpire("s", func(string, relation.Row, xtime.Time) {}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(w*1000 + i)
				if err := e.InsertTTL("s", tuple.Ints(id, id%7), xtime.Time(1+i%50)); err != nil {
					// Inserts may race with Advance pushing now past the
					// TTL origin; that is not possible here since TTL ≥ 1,
					// so any error is real.
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, err := e.Base("s")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := e.QueryStamped(b, "", 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := xtime.Time(1); tick <= 100; tick++ {
			if err := e.Advance(tick); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// Drain the rest deterministically.
	if err := e.Advance(2000); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Catalog().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.CountAt(e.Now()); got != 0 {
		t.Fatalf("%d tuples still alive after horizon", got)
	}
	st := e.Stats()
	if st.Inserts != writers*200 {
		t.Fatalf("inserts = %d", st.Inserts)
	}
}

// TestCrossTableParallelStress hammers several tables at once — inserts,
// deletes, single-table queries, cross-table joins and a clock advancer —
// under every sweep configuration; run with -race. Per-table
// locking must keep every combination linearisable: after the horizon all
// tables drain to empty.
func TestCrossTableParallelStress(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"eager", nil},
		{"lazy-8", []Option{WithSweep(SweepLazy, 8)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			e := New(cfg.opts...)
			const tables = 4
			names := make([]string, tables)
			for i := range names {
				names[i] = fmt.Sprintf("t%d", i)
				if err := e.CreateTable(names[i], tuple.IntCols("id", "v")); err != nil {
					t.Fatal(err)
				}
				if err := e.OnExpire(names[i], func(string, relation.Row, xtime.Time) {}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			// One writer per table: insert, occasionally extend or delete.
			for w := 0; w < tables; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					table := names[w]
					for i := 0; i < 300; i++ {
						id := int64(i % 50)
						if err := e.InsertTTL(table, tuple.Ints(id, int64(w)), xtime.Time(1+i%40)); err != nil {
							t.Error(err)
							return
						}
						if i%7 == 0 {
							if _, err := e.Delete(table, tuple.Ints(id, int64(w))); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			// Cross-table join readers.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					left, err := e.Base(names[r])
					if err != nil {
						t.Error(err)
						return
					}
					right, err := e.Base(names[(r+1)%tables])
					if err != nil {
						t.Error(err)
						return
					}
					j, err := algebra.EquiJoin(left, 0, right, 0)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 100; i++ {
						if _, err := e.QueryStamped(j, "", 0); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}
			// Single-table readers.
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					b, err := e.Base(names[(r+2)%tables])
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 200; i++ {
						if _, err := e.QueryStamped(b, "", 0); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tick := xtime.Time(1); tick <= 150; tick++ {
					if err := e.Advance(tick); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			if err := e.Advance(5000); err != nil {
				t.Fatal(err)
			}
			if cfg.name == "lazy-8" {
				e.Sweep()
			}
			for _, name := range names {
				rel, err := e.Catalog().Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if got := rel.CountAt(e.Now()); got != 0 {
					t.Fatalf("%s: %d tuples alive after horizon", name, got)
				}
			}
		})
	}
}

// TestInsertTTLAdvanceRace is the regression test for the InsertTTL bug:
// the expiration time used to be computed under one lock acquisition and
// applied under a second, so a concurrent Advance in the gap made the
// insert spuriously fail with "expiration time not after current tick".
// With the TTL computed inside the insert's critical section, a TTL ≥ 1
// insert can never fail no matter how the clock races.
func TestInsertTTLAdvanceRace(t *testing.T) {
	e := New()
	if err := e.CreateTable("s", tuple.IntCols("id")); err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	stop := make(chan struct{})
	var advWG sync.WaitGroup
	advWG.Add(1)
	go func() {
		defer advWG.Done()
		tick := xtime.Time(0)
		for {
			select {
			case <-stop:
				return
			default:
				tick++
				if err := e.Advance(tick); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	const inserters = 4
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := e.InsertTTL("s", tuple.Ints(int64(w*10000+i)), 1); err != nil {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	advWG.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d InsertTTL calls spuriously failed against a racing Advance", n)
	}
}
