package engine_test

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// mustExec runs stmt on s and fails the test on an error.
func mustExec(t *testing.T, s *sql.Session, stmt string) *sql.Result {
	t.Helper()
	res, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

// basesOf is the oracle of a view's lock plan: the distinct base relations
// of expr, found by a walk of its own, in ascending LockOrder.
func basesOf(expr algebra.Expr) []*relation.Relation {
	var rels []*relation.Relation
	algebra.Walk(expr, func(e algebra.Expr) {
		if b, ok := e.(*algebra.Base); ok && !slices.Contains(rels, b.Rel) {
			rels = append(rels, b.Rel)
		}
	})
	sort.Slice(rels, func(i, j int) bool { return rels[i].LockOrder() < rels[j].LockOrder() })
	return rels
}

// TestViewLockPlan: a view's lock plan (View.Bases) is the distinct base
// relations of its expression in ascending LockOrder, for a join, a
// self-join, a difference and a GROUP BY, and it is made once. el is
// created before pol, so the join and the difference list their bases
// against the order they are locked in. After DROP TABLE el and a new el,
// the views over el keep reading, and read-locking, the relation their
// expressions hold: a writer on the old el holds their reads up, one on the
// new el does not.
func TestViewLockPlan(t *testing.T) {
	e := engine.New()
	s := sql.NewSession(e, nil)
	mustExec(t, s, "CREATE TABLE el (uid INT, deg INT)")
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	for i := int64(0); i < 20; i++ {
		if err := e.InsertTTL("pol", tuple.Ints(i, i%3), xtime.Time(5+i)); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertTTL("el", tuple.Ints(2*i, i%4), xtime.Time(3+i)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_join AS SELECT pol.uid, el.deg FROM pol JOIN el ON pol.uid = el.uid")
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_diff AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	pol, err := e.Base("pol")
	if err != nil {
		t.Fatal(err)
	}
	self, err := algebra.NewJoin(algebra.ColCol{Left: 0, Right: 2, Op: algebra.OpEq}, pol, pol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateView("v_self", self); err != nil {
		t.Fatal(err)
	}
	oldEl, err := e.Catalog().Table("el")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]*relation.Relation{
		"v_join": {oldEl, pol.Rel}, "v_diff": {oldEl, pol.Rel}, "v_hist": {pol.Rel}, "v_self": {pol.Rel},
	}
	for name, rels := range want {
		v, err := e.Catalog().View(name)
		if err != nil {
			t.Fatal(err)
		}
		got := v.Bases()
		if !slices.Equal(got, basesOf(v.Expr())) || !slices.Equal(got, rels) {
			t.Fatalf("%s: lock plan of %d relations, want the %d bases of %s in LockOrder", name, len(got), len(rels), v.Expr())
		}
		if again := v.Bases(); &again[0] != &got[0] {
			t.Fatalf("%s: a second call made its lock plan again", name)
		}
	}

	mustExec(t, s, "DROP TABLE el")
	mustExec(t, s, "CREATE TABLE el (uid INT, deg INT)")
	newEl, err := e.Catalog().Table("el")
	if err != nil {
		t.Fatal(err)
	}
	// read reads name in a goroutine and reports whether it finished
	// within wait.
	read := func(name string, wait time.Duration) (done chan error, finished bool) {
		done = make(chan error, 1)
		go func() {
			_, _, err := e.ReadView(name)
			done <- err
		}()
		select {
		case err := <-done:
			done <- err
			return done, true
		case <-time.After(wait):
			return done, false
		}
	}
	for _, name := range []string{"v_join", "v_diff"} {
		v, err := e.Catalog().View(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Bases(); !slices.Equal(got, basesOf(v.Expr())) || !slices.Contains(got, oldEl) || slices.Contains(got, newEl) {
			t.Fatalf("%s: after DROP TABLE el its lock plan left the relation its expression holds", name)
		}
		newEl.Lock()
		done, finished := read(name, 5*time.Second)
		newEl.Unlock()
		if !finished {
			t.Fatalf("%s: a writer on the new el held up its read", name)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s after DROP TABLE el: %v", name, err)
		}
		oldEl.Lock()
		done, finished = read(name, 50*time.Millisecond)
		oldEl.Unlock()
		if finished {
			t.Fatalf("%s: read while a writer held the el its expression holds", name)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s after DROP TABLE el: %v", name, err)
		}
	}
}

// TestViewReadsUnderWritesAndAdvance: readers in four sessions, each in
// turn, read a join view, an exact GROUP BY view (which keeps its future)
// and a WITH (patching) difference view while a writer inserts into both base
// tables and the clock advances; no read returns a row whose texp is not
// after the read's At. A view sees a base insert only at REFRESH VIEW, so
// once the writer and the clock stop each view is refreshed, and then read
// at every tick of a stretch in which its rows expire and its births fall
// due: each read equals algebra.Evaluate of the view's expression at that
// tick, rows and texps. Run under -race.
func TestViewReadsUnderWritesAndAdvance(t *testing.T) {
	e := engine.New()
	s := sql.NewSession(e, nil)
	mustExec(t, s, "CREATE TABLE pol (uid INT, deg INT)")
	mustExec(t, s, "CREATE TABLE el (uid INT, deg INT)")
	rng := rand.New(rand.NewSource(54))
	insert := func(rng *rand.Rand, table string) error {
		return e.InsertTTL(table, tuple.Ints(rng.Int63n(60), rng.Int63n(8)), xtime.Time(1+rng.Int63n(80)))
	}
	for i := 0; i < 200; i++ {
		for _, table := range []string{"pol", "el"} {
			if err := insert(rng, table); err != nil {
				t.Fatal(err)
			}
		}
	}
	views := []string{"v_join", "v_hist", "v_diff"}
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_join AS SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid")
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg")
	mustExec(t, s, "CREATE MATERIALIZED VIEW v_diff WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el")

	var stop atomic.Bool
	var readers, busy sync.WaitGroup
	var reads [4][3]int // per reader, per view
	for r := range reads {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rs := sql.NewSession(e, nil)
			for i := r; !stop.Load(); i++ {
				name := views[i%len(views)]
				res, err := rs.Exec("SELECT * FROM " + name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				for _, row := range res.Rows() {
					if row.Texp <= res.At {
						t.Errorf("%s at %d: row %v with texp %d", name, res.At, row.Tuple, row.Texp)
						return
					}
				}
				reads[r][i%len(views)]++
			}
		}()
	}
	busy.Add(2)
	go func() {
		defer busy.Done()
		rng := rand.New(rand.NewSource(55))
		for i := 0; i < 1500; i++ {
			if err := insert(rng, []string{"pol", "el"}[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer busy.Done()
		for tick := xtime.Time(1); tick <= 60; tick++ {
			if err := e.Advance(tick); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond) // pacing: the ticks spread over the writer's run
		}
	}()
	busy.Wait()
	stop.Store(true)
	readers.Wait()
	for r := range reads {
		for i, n := range reads[r] {
			if n == 0 && !t.Failed() {
				t.Fatalf("reader %d never read %s while the writer ran", r, views[i])
			}
		}
	}
	if t.Failed() {
		return
	}

	for _, name := range views {
		mustExec(t, s, "REFRESH VIEW "+name)
	}
	for start, tick := e.Now(), e.Now()+1; tick <= start+90; tick += 3 {
		if err := e.Advance(tick); err != nil {
			t.Fatal(err)
		}
		for _, name := range views {
			res := mustExec(t, s, "SELECT * FROM "+name)
			v, err := e.Catalog().View(name)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := algebra.Evaluate(v.Expr(), res.At)
			if err != nil {
				t.Fatal(err)
			}
			got, want := res.Rows(), ev.Rel.RowsSorted(res.At)
			if !slices.EqualFunc(got, want, func(a, b relation.Row) bool { return a.Texp == b.Texp && a.Tuple.Equal(b.Tuple) }) {
				t.Fatalf("%s at %d: %d rows read, %d evaluated:\n%v\n%v", name, res.At, len(got), len(want), got, want)
			}
		}
	}
}
