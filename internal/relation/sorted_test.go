package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// sameRows fails unless got and want hold the same tuples with the same
// expiration times in the same order.
func sameRows(t *testing.T, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Tuple.Compare(want[i].Tuple) != 0 || got[i].Texp != want[i].Texp {
			t.Fatalf("%s: row %d is %v@%v, want %v@%v", what, i, got[i].Tuple, got[i].Texp, want[i].Tuple, want[i].Texp)
		}
	}
}

// freshSort is the reference RowsSorted: collect, then sort, every time.
func freshSort(r *Relation, tau xtime.Time) []Row {
	rows := r.Rows(tau)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
	return rows
}

// handle pairs a relation with a model of what it must contain: tuple key
// -> texp of every row alive past the handle's floor.
type handle struct {
	rel   *Relation
	model map[string]Row
	floor xtime.Time
}

func (h *handle) snapshot(tau xtime.Time) *handle {
	if tau < h.floor {
		tau = h.floor
	}
	s := &handle{rel: h.rel.SnapshotShared(tau), model: make(map[string]Row), floor: tau}
	for k, row := range h.model {
		if row.Texp > tau {
			s.model[k] = row
		}
	}
	return s
}

func (h *handle) check(t *testing.T, step int, rng *rand.Rand) {
	t.Helper()
	taus := []xtime.Time{0, h.floor - 1, h.floor, h.floor + 1, xtime.Time(rng.Intn(80)), xtime.Time(rng.Intn(80))}
	for _, tau := range taus {
		eff := tau
		if eff < h.floor {
			eff = h.floor
		}
		var want []Row
		for _, row := range h.model {
			if row.Texp > eff {
				want = append(want, row)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Tuple.Compare(want[j].Tuple) < 0 })
		got := h.rel.RowsSorted(tau)
		what := fmt.Sprintf("step %d, floor %v, τ=%v", step, h.floor, tau)
		sameRows(t, what+" vs model", got, want)
		sameRows(t, what+" vs sorted Rows(τ)", got, freshSort(h.rel, tau))
	}
}

// TestRowsSortedUnderRandomInterleavings: whatever mix of inserts, lifetime
// extensions, deletes, sweeps and shared snapshots a source and its
// snapshots go through, RowsSorted(τ) on every live handle is Rows(τ)
// sorted — below, at and above the handle's floor — and matches a model
// kept beside the handle, so an escaped snapshot never sees a later write
// through a remembered order.
func TestRowsSortedUnderRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := &handle{rel: New(tuple.IntCols("a", "b")), model: make(map[string]Row)}
		if seed%2 == 0 {
			src.rel.EnableTexpIndex()
		}
		live := []*handle{src}
		for step := 0; step < 400; step++ {
			h := live[rng.Intn(len(live))]
			switch op := rng.Intn(10); {
			case op < 4: // insert, or extend when the tuple is there
				tp := tuple.Ints(int64(rng.Intn(40)), int64(rng.Intn(3)))
				texp := xtime.Time(1 + rng.Intn(80))
				h.rel.Insert(tp, texp)
				if old, ok := h.model[tp.Key()]; texp > h.floor && (!ok || texp > old.Texp) {
					h.model[tp.Key()] = Row{Tuple: tp, Texp: texp}
				}
			case op < 5: // extend a stored tuple
				for k, row := range h.model {
					h.rel.Insert(row.Tuple, row.Texp+5)
					h.model[k] = Row{Tuple: row.Tuple, Texp: row.Texp + 5}
					break
				}
			case op < 6:
				for k := range h.model {
					if !h.rel.DeleteKey(k) {
						t.Fatalf("seed %d step %d: DeleteKey missed a stored row", seed, step)
					}
					delete(h.model, k)
					break
				}
			case op < 7:
				tau := xtime.Time(rng.Intn(60))
				h.rel.RemoveExpired(tau)
				for k, row := range h.model {
					if row.Texp <= tau {
						delete(h.model, k)
					}
				}
			default:
				s := h.snapshot(xtime.Time(rng.Intn(60)))
				if len(live) < 6 {
					live = append(live, s)
				} else {
					live[1+rng.Intn(len(live)-1)] = s // the replaced handle is simply let go
				}
			}
			for _, h := range live {
				h.check(t, step, rng)
			}
		}
	}
}

// TestFrozenMapSortsOnce is the structural half: reads of one frozen map
// share one sorted backing slice however many handles ask, each caller
// still gets a slice of its own, the first mutation drops the remembered
// order for the mutator only, and a fresh freeze starts a fresh order.
func TestFrozenMapSortsOnce(t *testing.T) {
	r := bigPol(300)
	if r.sorted != nil {
		t.Fatal("a private map carries a remembered order")
	}
	s1 := r.SnapshotShared(0)
	s2 := r.SnapshotShared(30)
	s3 := s2.SnapshotShared(40)
	held := r.sorted
	if held == nil || s1.sorted != held || s2.sorted != held || s3.sorted != held {
		t.Fatal("handles on one frozen map do not share one remembered order")
	}
	if held.rows != nil {
		t.Fatal("the order was built before anyone asked for it")
	}

	want1, want2, want3 := freshSort(s1, 0), freshSort(s2, 0), freshSort(s3, 35)
	first := s2.RowsSorted(0)
	backing := &held.rows[0]
	for i := 0; i < 5; i++ {
		sameRows(t, "s1", s1.RowsSorted(0), want1)
		sameRows(t, "s2", s2.RowsSorted(0), want2)
		sameRows(t, "s3", s3.RowsSorted(35), want3)
		sameRows(t, "source", r.RowsSorted(0), want1)
		if &held.rows[0] != backing || len(held.rows) != 300 {
			t.Fatal("a later read rebuilt the remembered order")
		}
	}
	// The returned slice is the caller's: scribbling on it (ORDER BY sorts
	// it in place) reaches neither the remembered order nor other callers.
	for i, j := 0, len(first)-1; i < j; i, j = i+1, j-1 {
		first[i], first[j] = first[j], first[i]
	}
	sameRows(t, "s2 after a caller reversed its copy", s2.RowsSorted(0), want2)
	if n := testing.AllocsPerRun(50, func() { _ = s1.RowsSorted(20) }); n != 1 {
		t.Fatalf("RowsSorted on a frozen map allocates %.0f objects, want 1 (the result slice)", n)
	}

	// The source mutates: it alone leaves the map and its order.
	r.MustInsertInts(99, 1000, 1)
	if r.sorted != nil || r.shared {
		t.Fatal("the mutator kept the frozen map's order")
	}
	if s1.sorted != held || s2.sorted != held || &held.rows[0] != backing {
		t.Fatal("a mutation of the source disturbed the snapshots' order")
	}
	sameRows(t, "s1 after source insert", s1.RowsSorted(0), want1)
	sameRows(t, "source after insert", r.RowsSorted(0), freshSort(r, 0))
	if len(r.RowsSorted(0)) != len(want1)+1 {
		t.Fatal("the source's own insert is missing from its order")
	}

	// A snapshot mutates: same on the other side.
	s1.Delete(want1[0].Tuple)
	if s1.sorted != nil || s2.sorted != held {
		t.Fatal("a snapshot's mutation dropped the wrong handle's order")
	}
	sameRows(t, "s1 after its delete", s1.RowsSorted(0), want1[1:])
	sameRows(t, "s2 after s1's delete", s2.RowsSorted(0), want2)

	// Freezing the source again starts a new order over the new map.
	s4 := r.SnapshotShared(0)
	if r.sorted == nil || r.sorted == held || s4.sorted != r.sorted {
		t.Fatal("a re-frozen map reuses the previous map's order")
	}
	sameRows(t, "s4", s4.RowsSorted(0), freshSort(r, 0))
}

// TestNoRememberedOrderBelowTwoRows: a point read's result has no order to
// remember and must not pay for a holder.
func TestNoRememberedOrderBelowTwoRows(t *testing.T) {
	for n := 0; n < 2; n++ {
		r := bigPol(n)
		s := r.SnapshotShared(0)
		if r.sorted != nil || s.sorted != nil {
			t.Fatalf("%d-row map was given a remembered order", n)
		}
		if got := s.RowsSorted(0); len(got) != n {
			t.Fatalf("%d-row snapshot returned %d rows", n, len(got))
		}
	}
}

// TestRowsSortedConcurrentSiblings: eight goroutines read sibling snapshots
// in tuple order — racing to the one build — while the owner keeps
// patching the source and freezing it again. Run under -race.
func TestRowsSortedConcurrentSiblings(t *testing.T) {
	owner := bigPol(500)
	for round := 0; round < 20; round++ {
		want := freshSort(owner, 0)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			snap := owner.SnapshotShared(0) // the owner's goroutine: a snapshot marks its source
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					got := snap.RowsSorted(xtime.Time(i))
					if len(got) != len(want) {
						t.Errorf("round %d: %d rows, want %d", round, len(got), len(want))
						return
					}
					for j := range got {
						if got[j].Tuple.Compare(want[j].Tuple) != 0 || got[j].Texp != want[j].Texp {
							t.Errorf("round %d: row %d out of order", round, j)
							return
						}
					}
				}
			}()
		}
		// Patches land while the readers run: the first detaches the owner.
		for i := 0; i < 10; i++ {
			owner.MustInsertInts(xtime.Time(100+round), int64(10_000+round*10+i), 0)
		}
		owner.Delete(want[round].Tuple)
		sameRows(t, "owner", owner.RowsSorted(0), freshSort(owner, 0))
		wg.Wait()
	}
}
