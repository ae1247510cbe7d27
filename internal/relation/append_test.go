package relation_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// pair is one relation filled by AppendDistinct beside one filled with the
// same rows by InsertOwnedRow: whatever is done to both, they must agree.
type pair struct{ app, keyed *relation.Relation }

// fill appends rows to p.app and inserts them into p.keyed.
func (p pair) fill(rows []relation.Row) {
	for _, row := range rows {
		p.app.AppendDistinct(row)
		p.keyed.InsertOwnedRow(row)
	}
}

// agree fails unless the two relations agree on every accessor at every
// instant of taus, the probes over domain included, and both stores keep
// their invariants. The walks come first and must leave an unkeyed
// relation unkeyed.
func (p pair) agree(t *testing.T, what string, taus []xtime.Time, domain []tuple.Tuple) {
	t.Helper()
	for _, r := range []*relation.Relation{p.app, p.keyed} {
		if msg := r.ShapeError(); msg != "" {
			t.Fatalf("%s: %s", what, msg)
		}
	}
	keyed := p.app.Keyed()
	if a, k := p.app.Len(), p.keyed.Len(); a != k {
		t.Fatalf("%s: Len %d by append, %d keyed", what, a, k)
	}
	for _, tau := range taus {
		if a, k := p.app.CountAt(tau), p.keyed.CountAt(tau); a != k {
			t.Fatalf("%s: CountAt(%v) %d by append, %d keyed", what, tau, a, k)
		}
		if a, k := p.app.RowsSorted(tau), p.keyed.RowsSorted(tau); !slices.EqualFunc(a, k, sameRow) {
			t.Fatalf("%s: RowsSorted(%v)\n%v by append\n%v keyed", what, tau, a, k)
		}
		if a, k := p.app.ExpiresBy(tau), p.keyed.ExpiresBy(tau); a != k {
			t.Fatalf("%s: ExpiresBy(%v) %v by append, %v keyed", what, tau, a, k)
		}
	}
	if p.app.Keyed() != keyed {
		t.Fatalf("%s: a walk derived the key set", what)
	}
	for _, tau := range taus {
		if !reltest.EqualAt(p.app, p.keyed, tau) || !reltest.EqualAt(p.keyed, p.app, tau) {
			t.Fatalf("%s: EqualAt(%v) fails\n%s\n%s", what, tau, p.app.Render(tau), p.keyed.Render(tau))
		}
		for _, tp := range domain {
			if a, k := p.app.Contains(tp, tau), p.keyed.Contains(tp, tau); a != k {
				t.Fatalf("%s: Contains(%v, %v) %v by append, %v keyed", what, tp, tau, a, k)
			}
		}
	}
	for _, tp := range domain {
		k := tp.Key()
		ar, aok := p.app.RowByKey(k)
		kr, kok := p.keyed.RowByKey(k)
		at, _ := p.app.TexpKey(k)
		kt, _ := p.keyed.TexpKey(k)
		if aok != kok || aok && !sameRow(ar, kr) || at != kt {
			t.Fatalf("%s: %v is %v@%v (%v, TexpKey %v) by append, %v@%v (%v, TexpKey %v) keyed",
				what, tp, ar.Tuple, ar.Texp, aok, at, kr.Tuple, kr.Texp, kok, kt)
		}
	}
}

func sameRow(a, b relation.Row) bool { return a.Tuple.Equal(b.Tuple) && a.Texp == b.Texp }

// TestAppendDistinctAgreesWithKeyedInsert drives a relation filled by
// AppendDistinct and one filled with the same distinct rows by
// InsertOwnedRow through one seeded sequence of probes, keyed inserts that
// extend a row or add one, more appends, deletes, sweeps, snapshots and a
// write through either handle of a shared store, and a drain that compacts
// the store, checking after each step that they agree on every accessor.
// Every few steps the pair is filled anew, so that each kind of step also
// meets a relation that has not derived its key set yet.
func TestAppendDistinctAgreesWithKeyedInsert(t *testing.T) {
	schema := tuple.IntCols("a", "b")
	var domain []tuple.Tuple // every tuple a step probes or writes, but the drain's
	for a := int64(0); a < 30; a++ {
		domain = append(domain, tuple.Ints(a, a%3))
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		texp := func() xtime.Time { return xtime.Time(1 + rng.Intn(40)) }
		// some returns the rows of n tuples of the domain the pair does not
		// hold, with fresh lifetimes.
		some := func(p pair, n int) []relation.Row {
			var rows []relation.Row
			for _, i := range rng.Perm(len(domain)) {
				if _, ok := p.keyed.RowByKey(domain[i].Key()); !ok && len(rows) < n {
					rows = append(rows, relation.Row{Tuple: domain[i], Texp: texp()})
				}
			}
			return rows
		}
		var p pair
		for step := 0; step < 300; step++ {
			tau := xtime.Time(rng.Intn(30))
			what := fmt.Sprintf("seed %d step %d", seed, step)
			if step%4 == 0 { // a fresh pair: the appended relation derives nothing yet
				p = pair{relation.New(schema), relation.New(schema)}
				p.fill(some(p, rng.Intn(25)))
			}
			switch op := rng.Intn(10); op {
			case 0: // the probes alone, which derive the key set
			case 1: // a keyed insert that extends, or is ignored
				tp := domain[rng.Intn(len(domain))]
				at := texp()
				row := relation.Row{Tuple: tp, Texp: at}
				if a, k := p.app.InsertOwnedRow(row), p.keyed.InsertOwnedRow(row); a != k {
					t.Fatalf("%s: InsertOwnedRow(%v@%v) %v by append, %v keyed", what, tp, at, a, k)
				}
			case 2: // keyed inserts that add
				for _, row := range some(p, 3) {
					p.app.InsertOwnedRow(row)
					p.keyed.InsertOwnedRow(row)
				}
			case 3: // more appends, onto a relation keyed or not
				p.fill(some(p, 1+rng.Intn(5)))
			case 4:
				tp := domain[rng.Intn(len(domain))]
				if a, k := p.app.DeleteKey(tp.Key()), p.keyed.DeleteKey(tp.Key()); a != k {
					t.Fatalf("%s: DeleteKey(%v) %v by append, %v keyed", what, tp, a, k)
				}
			case 5:
				a, k := p.app.RemoveExpired(tau), p.keyed.RemoveExpired(tau)
				if a, k := fmt.Sprint(sortedRows(a)), fmt.Sprint(sortedRows(k)); a != k {
					t.Fatalf("%s: RemoveExpired(%v) took %s by append, %s keyed", what, tau, a, k)
				}
			case 6, 7: // freeze, then write through the old handle or the new
				s := pair{p.app.SnapshotShared(tau), p.keyed.SnapshotShared(tau)}
				w, kept := p, s
				if op == 7 {
					w, kept = s, p
				}
				before := pair{kept.app.Snapshot(0), kept.keyed.Snapshot(0)}
				row := some(w, 1)
				w.fill(row)
				if len(row) > 0 && (kept.app.Len() != before.app.Len() || !reltest.EqualAt(kept.app, before.app, 0)) {
					t.Fatalf("%s: the write to one handle of a shared store showed through the other", what)
				}
				kept.agree(t, what+" (the handle not written)", []xtime.Time{0, tau, tau + 5}, domain)
				p = w
			case 8:
				p = pair{p.app.Snapshot(tau), p.keyed.Snapshot(tau)}
			case 9: // the drain: the holes pass 2×rows + slack and the store compacts
				drain := make([]relation.Row, 1500)
				for i := range drain {
					drain[i] = relation.Row{Tuple: tuple.Ints(int64(1000+i), 0), Texp: xtime.Time(40 + i%5)}
				}
				p.fill(drain)
				if rng.Intn(2) == 0 { // by deletes, on a key set derived for them
					for _, row := range drain[:1400] {
						p.app.DeleteKey(row.Tuple.Key())
						p.keyed.DeleteKey(row.Tuple.Key())
					}
				} else { // by a copy without the dead rows, which needs no key set
					wasKeyed := p.app.Keyed()
					p = pair{p.app.Snapshot(44), p.keyed.Snapshot(44)}
					if !wasKeyed && p.app.Keyed() {
						t.Fatalf("%s: the copy of an unkeyed store derived a key set", what)
					}
				}
			}
			p.agree(t, what, []xtime.Time{0, tau, tau + 1, 45}, domain)
		}
	}
}

func sortedRows(rows []relation.Row) []relation.Row {
	slices.SortFunc(rows, func(a, b relation.Row) int { return a.Tuple.Compare(b.Tuple) })
	return rows
}

// TestProbeHandlesOfFrozenUnkeyedStore probes three handles of one frozen
// store filled by AppendDistinct from three goroutines at once: each derives
// its own key set, so under -race none reads what another writes.
func TestProbeHandlesOfFrozenUnkeyedStore(t *testing.T) {
	r := relation.New(tuple.IntCols("a", "b"))
	for i := int64(0); i < 300; i++ {
		r.AppendDistinct(relation.Row{Tuple: tuple.Ints(i, i%7), Texp: xtime.Time(1 + i%20)})
	}
	handles := []*relation.Relation{r.SnapshotShared(0), r.SnapshotShared(5), r}
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 300; i++ {
				tp := tuple.Ints(i, i%7)
				row, ok := h.RowByKey(tp.Key())
				if want := h.Contains(tp, 0); ok != want || ok && !row.Tuple.Equal(tp) {
					t.Errorf("%v: RowByKey %v (%v), Contains %v", tp, row.Tuple, ok, want)
				}
			}
		}()
	}
	wg.Wait()
	if !r.Keyed() || !handles[0].Keyed() {
		t.Fatal("a probe did not derive the handle's key set")
	}
}
