package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
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

func sortRows(rows []Row) []Row {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
	return rows
}

// freshSort is the reference RowsSorted: collect, then sort, every time.
func freshSort(r *Relation, tau xtime.Time) []Row { return sortRows(r.Rows(tau)) }

// handle pairs a relation with a model of what it must contain: set key ->
// row, for every row alive past the handle's floor.
type handle struct {
	rel   *Relation
	model map[string]Row
	floor xtime.Time
}

// The ways one handle begets another.
const (
	forkShared   = iota // SnapshotShared(τ): aliases the store, floor max(floor, τ)
	forkSnapshot        // Snapshot(τ): a private copy of the rows alive at τ
	forkClone           // Clone(): a private copy of every visible row
)

func (h *handle) fork(t *testing.T, kind int, tau xtime.Time) *handle {
	t.Helper()
	tau = max(tau, h.floor)
	s := &handle{model: make(map[string]Row)}
	switch kind {
	case forkShared:
		s.rel, s.floor = h.rel.SnapshotShared(tau), tau
	case forkSnapshot:
		s.rel = h.rel.Snapshot(tau)
	case forkClone:
		s.rel, tau = h.rel.Snapshot(h.rel.floor), h.floor
	}
	if s.rel.ints != nil {
		t.Fatal("a snapshot or copy was handed the column arrays")
	}
	for k, row := range h.model {
		if row.Texp > tau {
			s.model[k] = row
		}
	}
	return s
}

// insert applies set semantics on both sides, through Insert and InsertOwned
// by turns — the second stores the caller's tuple as it is, and the ⟨⟩ the
// wire and the log hand over is a nil slice. A row at or below the floor is
// stored but never shown, so the model leaves it out.
func (h *handle) insert(tp tuple.Tuple, texp xtime.Time) {
	if texp%2 == 0 {
		h.rel.InsertOwnedRow(Row{Tuple: tp, Texp: texp})
	} else {
		h.rel.Insert(tp, texp)
	}
	if old, ok := h.model[tp.Key()]; texp > h.floor && (!ok || texp > old.Texp) {
		h.model[tp.Key()] = Row{Tuple: tp, Texp: texp}
	}
}

// delete removes tp on both sides; DeleteKey must report exactly whether the
// model held it.
func (h *handle) delete(t *testing.T, tp tuple.Tuple) {
	t.Helper()
	k := tp.Key()
	_, want := h.model[k]
	if got := h.rel.DeleteKey(k); got != want {
		t.Fatalf("DeleteKey(%v) = %v, the model says %v", tp, got, want)
	}
	delete(h.model, k)
	h.bounded(t)
}

// some returns up to n rows of the model, in tuple order so that a seed
// names one run.
func (h *handle) some(rng *rand.Rand, n int) []Row {
	rows := make([]Row, 0, len(h.model))
	for _, row := range h.model {
		rows = append(rows, row)
	}
	sortRows(rows)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows[:min(n, len(rows))]
}

// bounded is the store's shape: one hole per freed slot and no other, and
// never more than 2×rows + slack slots — on a store that was just copied
// or compacted as on any other. The column arrays, where the handle has
// them, hold every stored row's INT.
func (h *handle) bounded(t *testing.T) {
	t.Helper()
	arraysAgree(t, h.rel)
	if msg := h.rel.ShapeError(); msg != "" {
		t.Fatalf("%s: %d slots, %d free", msg, len(h.rel.slots), len(h.rel.free))
	}
}

// check compares every accessor with the model: the scans (RowsSorted, Rows,
// AliveAt, CountAt) below, at and above the floor and at two sampled
// instants, Len, and the point accessors over the whole tuple domain.
func (h *handle) check(t *testing.T, step int, rng *rand.Rand, domain []tuple.Tuple) {
	t.Helper()
	h.bounded(t)
	taus := []xtime.Time{0, h.floor - 1, h.floor, h.floor + 1, xtime.Time(rng.Intn(80)), xtime.Time(rng.Intn(80))}
	for _, tau := range taus {
		eff := max(tau, h.floor)
		var want []Row
		for _, row := range h.model {
			if row.Texp > eff {
				want = append(want, row)
			}
		}
		sortRows(want)
		got := h.rel.RowsSorted(tau)
		what := fmt.Sprintf("step %d, floor %v, τ=%v", step, h.floor, tau)
		sameRows(t, what+" vs model", got, want)
		sameRows(t, what+" vs sorted Rows(τ)", got, freshSort(h.rel, tau))
		var alive []Row
		h.rel.AliveAt(tau, func(row Row) {
			if row.Texp <= eff {
				t.Fatalf("%s: AliveAt shows %v@%v", what, row.Tuple, row.Texp)
			}
			alive = append(alive, row)
		})
		sameRows(t, what+" AliveAt vs model", sortRows(alive), want)
		if n := h.rel.CountAt(tau); n != len(want) {
			t.Fatalf("%s: CountAt = %d, want %d", what, n, len(want))
		}
	}
	if n := h.rel.Len(); n != len(h.model) {
		t.Fatalf("step %d, floor %v: Len = %d, want %d", step, h.floor, n, len(h.model))
	}
	for _, tp := range domain {
		k := tp.Key()
		want, ok := h.model[k]
		texp, gotTexp := h.rel.TexpKey(k)
		row, gotRow := h.rel.RowByKey(k)
		if gotTexp != ok || gotRow != ok || texp != want.Texp || row.Texp != want.Texp || (ok && !row.Tuple.Equal(tp)) {
			t.Fatalf("step %d, floor %v: %v is %v@%v (%v) by RowByKey and @%v (%v) by TexpKey, want @%v (%v)",
				step, h.floor, tp, row.Tuple, row.Texp, gotRow, texp, gotTexp, want.Texp, ok)
		}
	}
}

// merge keeps a handle as a materialisation is kept at now: run, the births
// due, is merged in when there is one, and a merge with no run compacts the
// store as soon as it holds a row dead at now; then it is frozen. A store in
// order holds exactly its live rows.
func (h *handle) merge(t *testing.T, now xtime.Time, run []Row) {
	t.Helper()
	if len(run) > 0 || h.rel.Len() > h.rel.CountAt(now) {
		h.rel = h.rel.Merge(now, run)
		for _, b := range run {
			if old, ok := h.model[b.Tuple.Key()]; !ok || b.Texp > old.Texp {
				h.model[b.Tuple.Key()] = b
			}
		}
		for k, row := range h.model {
			if row.Texp <= now {
				delete(h.model, k)
			}
		}
	}
	if h.rel.InOrder() && len(h.rel.slots) != h.rel.CountAt(now) {
		t.Fatalf("merged at %v: %d slots for %d live rows", now, len(h.rel.slots), h.rel.CountAt(now))
	}
	h.rel.SnapshotShared(now)
}

// TestRowsSortedUnderRandomInterleavings is the model test of the row store:
// whatever mix of inserts, lifetime extensions, shorter re-inserts, deletes,
// sweeps, delete-then-insert bursts (freed slots reused), a drain that
// compacts, and shared snapshots, copies and clones a source and its
// descendants go through, every accessor of every live handle agrees with a
// map kept beside the handle — below, at and above the handle's floor — so
// an escaped snapshot never sees a later write: not through a slot written
// in place or reused, not through a compaction, not through a merge. One
// more handle is kept as a materialisation is (merge) at an instant that
// only grows: a run of births — repeats and rows dead on arrival among them
// — merged in every few steps, a compaction as soon as a row is dead, and
// written to and forked like the others. The schemas are ⟨a, b⟩ without
// and with the texp heap, and the zero-column relation, whose one tuple ⟨⟩
// has no values to tell it from a hole by. A source over ⟨a, b⟩ keeps the
// column arrays, through the drain's detach and compaction and every slot
// reuse, until — in every other such seed — column b takes a FLOAT and
// drops its array.
func TestRowsSortedUnderRandomInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := tuple.IntCols("a", "b")
		gen := func() tuple.Tuple { return tuple.Ints(int64(rng.Intn(40)), int64(rng.Intn(3))) }
		fresh := func(i int) tuple.Tuple { return tuple.Ints(int64(1000+i), 0) } // outside gen's domain
		var domain []tuple.Tuple
		for a := int64(0); a < 40; a++ {
			for b := int64(0); b < 3; b++ {
				domain = append(domain, tuple.Ints(a, b))
			}
		}
		if seed%3 == 0 {
			schema, domain = tuple.Schema{}, []tuple.Tuple{tuple.T()}
			gen = func() tuple.Tuple { return tuple.T() }
			fresh = func(int) tuple.Tuple { return tuple.T() }
		}
		src := &handle{rel: New(schema), model: make(map[string]Row)}
		if seed%3 == 1 {
			src.rel.EnableTexpIndex()
		}
		src.rel.EnableIntArrays()
		live := []*handle{src}
		kept := &handle{rel: New(schema), model: make(map[string]Row)}
		now := xtime.Time(0)
		adopt := func(s *handle) {
			if len(live) < 6 {
				live = append(live, s)
			} else {
				live[1+rng.Intn(len(live)-1)] = s // the replaced handle is simply let go
			}
		}
		nfresh := 0
		for step := 0; step < 400; step++ {
			h := kept
			if i := rng.Intn(len(live) + 1); i < len(live) {
				h = live[i]
			}
			switch op := rng.Intn(14); {
			case op < 4: // insert, or extend when the tuple is there
				h.insert(gen(), xtime.Time(1+rng.Intn(80)))
			case op < 5: // extend a stored tuple: one word written in place
				for _, row := range h.some(rng, 1) {
					h.insert(row.Tuple, row.Texp+5)
				}
			case op < 6: // a shorter lifetime never wins
				for _, row := range h.some(rng, 1) {
					if h.rel.Insert(row.Tuple, row.Texp-xtime.Time(1+rng.Intn(3))) {
						t.Fatalf("seed %d step %d: a re-insert with a lower texp changed the relation", seed, step)
					}
				}
			case op < 7:
				for _, row := range h.some(rng, 1) {
					h.delete(t, row.Tuple)
				}
			case op < 8:
				tau := xtime.Time(rng.Intn(60))
				h.rel.RemoveExpired(tau)
				for k, row := range h.model {
					if row.Texp <= tau {
						delete(h.model, k)
					}
				}
			case op < 9: // a burst: the inserts land in the slots the deletes freed
				victims := h.some(rng, 6)
				for _, row := range victims {
					h.delete(t, row.Tuple)
				}
				for range victims {
					h.insert(fresh(nfresh), xtime.Time(61+rng.Intn(20)))
					nfresh++
				}
			case op < 10:
				adopt(h.fork(t, forkSnapshot+rng.Intn(2), xtime.Time(rng.Intn(60))))
			default:
				adopt(h.fork(t, forkShared, xtime.Time(rng.Intn(60))))
			}
			if step == 150 {
				// The drain: a table grows by 1 500 rows, is frozen, and
				// loses them again. The holes pass rows + slack on the way
				// down, so the store compacts — every slot renumbered —
				// under a snapshot that must go on seeing all 1 500. Every
				// other seed drains the source, whose arrays are renumbered
				// with the slots.
				if seed%2 == 0 {
					h = src
				}
				for i := 0; i < 1500; i++ {
					h.insert(fresh(nfresh+i), xtime.Time(61+i%20))
				}
				frozen := h.fork(t, forkShared, 0)
				for i := 0; i < 1500; i++ {
					h.delete(t, fresh(nfresh+i))
				}
				nfresh += 1500
				frozen.check(t, step, rng, domain)
			}
			if step == 300 && seed%3 == 2 {
				// A FLOAT in an INT column, as Schema.Validate admits.
				src.insert(tuple.T(value.Int(2000), value.Float(0.5)), 70)
				if src.rel.HasIntArray(1) || !src.rel.HasIntArray(0) {
					t.Fatalf("seed %d: after a FLOAT in b the arrays are a %v, b %v, want a only",
						seed, src.rel.HasIntArray(0), src.rel.HasIntArray(1))
				}
			}
			now += xtime.Time(rng.Intn(2))
			var run []Row
			for range rng.Intn(4) * (step % 2) {
				run = append(run, Row{Tuple: gen(), Texp: now + xtime.Time(rng.Intn(40))})
			}
			kept.merge(t, now, sortRows(run))
			for _, h := range append(live, kept) {
				h.check(t, step, rng, domain)
			}
		}
	}
}

// TestMerge: of equal tuples — in the store and the run, or twice in the run
// — the later texp wins; holes and rows dead at τ go; the rows come out in
// tuple order, texps ascending beside them: from a store not in order, from
// one in order with and without a tuple in both, and with no run.
func TestMerge(t *testing.T) {
	rows := func(pairs ...int64) (out []Row) { // a, texp, a, texp, …
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, Row{Tuple: tuple.Ints(pairs[i]), Texp: xtime.Time(pairs[i+1])})
		}
		return out
	}
	r := New(tuple.IntCols("a"))
	for _, row := range rows(5, 8, 1, 3, 3, 20, 0, 9, 4, 50, 2, 7) {
		r.Insert(row.Tuple, row.Texp)
	}
	r.DeleteKey(tuple.Ints(4).Key()) // a hole
	for i, st := range []struct {
		tau       xtime.Time
		run, want []Row
	}{
		{5, rows(0, 4, 1, 12, 2, 6, 3, 30, 3, 25, 4, 2, 6, 5, 7, 11, 7, 15), rows(0, 9, 1, 12, 2, 7, 3, 30, 5, 8, 7, 15)},
		{8, rows(1, 10, 8, 20), rows(0, 9, 1, 12, 3, 30, 7, 15, 8, 20)},
		{8, rows(6, 13, 9, 8), rows(0, 9, 1, 12, 3, 30, 6, 13, 7, 15, 8, 20)},
		{9, rows(10, 11, 10, 14), rows(1, 12, 3, 30, 6, 13, 7, 15, 8, 20, 10, 14)},
		{14, nil, rows(3, 30, 7, 15, 8, 20)},
	} {
		r = r.Merge(st.tau, st.run)
		texps := make([]xtime.Time, len(st.want))
		for j, row := range st.want {
			texps[j] = row.Texp
		}
		slices.Sort(texps)
		sameRows(t, fmt.Sprintf("merge %d", i), r.slots, st.want)
		if !r.InOrder() || !slices.Equal(r.texps, texps) {
			t.Fatalf("merge %d: in order %v, texps %v, want %v", i, r.InOrder(), r.texps, texps)
		}
	}
}

// TestMergeShedKeepsTexps: a compaction of an in-order store (a Merge with
// no run) keeps the texps it carries, the tail of its parent's, with no
// copy; a birth merged in every third step makes texps of its own. Store
// after store, each store's texps are its rows' texps ascending, and once
// all the sheds are done every older store and its snapshot count at every
// τ what they counted when it was made.
func TestMergeShedKeepsTexps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	r := New(tuple.IntCols("a"))
	for a := int64(0); a < 300; a++ {
		r.Insert(tuple.Ints(a), xtime.Time(1+rng.Intn(120)))
	}
	counts := func(s *Relation) []int {
		out := make([]int, 130)
		for tau := range out {
			out[tau] = s.CountAt(xtime.Time(tau))
		}
		return out
	}
	stores := []*Relation{r.Merge(0, nil)}
	before := [][]int{counts(stores[0])}
	snaps := []*Relation{stores[0].SnapshotShared(0)}
	for step, tau := 0, xtime.Time(4); tau < 128; step, tau = step+1, tau+4 {
		prev := stores[len(stores)-1]
		var run []Row
		if step%3 == 2 {
			run = []Row{{Tuple: tuple.Ints(int64(1000 + step)), Texp: tau + xtime.Time(1+rng.Intn(20))}}
		}
		next := prev.Merge(tau, run)
		want := make([]xtime.Time, len(next.slots))
		for i, row := range next.slots {
			want[i] = row.Texp
		}
		slices.Sort(want)
		if !slices.Equal(next.texps, want) {
			t.Fatalf("step %d: texps %v, want %v", step, next.texps, want)
		}
		if shares := len(want) > 0 && &next.texps[0] == &prev.texps[len(prev.texps)-len(want)]; shares != (run == nil && len(want) > 0) {
			t.Fatalf("step %d: run of %d, texps shared with the parent %v", step, len(run), shares)
		}
		stores, before = append(stores, next), append(before, counts(next))
		snaps = append(snaps, next.SnapshotShared(0))
	}
	for i := range stores {
		if got := counts(stores[i]); !slices.Equal(got, before[i]) || !slices.Equal(counts(snaps[i]), before[i]) {
			t.Fatalf("store %d counts %v after the sheds, %v when it was made", i, got, before[i])
		}
	}
}

// TestRowsSharedCopiesADeadRow: RowsShared hands out a frozen in-order
// store's own rows only while every row is alive; at a τ where one is dead
// it returns a fresh copy without that row, and the store is unchanged.
func TestRowsSharedCopiesADeadRow(t *testing.T) {
	r := New(tuple.IntCols("a"))
	for a, texp := range []xtime.Time{5, 9, 7} {
		r.Insert(tuple.Ints(int64(a)), texp)
	}
	snap := r.Merge(0, nil).SnapshotShared(0)
	all := snap.RowsShared(4)
	if len(all) != 3 || cap(all) != 3 || &all[0] != &snap.slots[0] {
		t.Fatalf("every row alive: %d rows, capacity %d, want the store's 3", len(all), cap(all))
	}
	got := snap.RowsShared(5) // a=0 dies at 5
	sameRows(t, "a row dead", got, freshSort(snap, 5))
	for i := range snap.slots {
		if &got[0] == &snap.slots[i] {
			t.Fatalf("a row dead: the store's own slots from slot %d, want a copy", i)
		}
	}
	sameRows(t, "the store after", snap.slots, all)
}

// TestRowsSortedConcurrentSiblings: eight goroutines read sibling snapshots
// — in tuple order and through the scans and the point accessors — while
// the owner keeps patching the source and freezing it again, every other
// round after laying it out in order (Merge). The owner's first write after
// a freeze is by turns a lifetime
// extension (one word in place) and an insert into the slot the previous
// round's delete freed: the two writes that would land in the array the
// readers are walking if they did not detach first. Run under -race.
func TestRowsSortedConcurrentSiblings(t *testing.T) {
	owner := bigPol(500)
	for round := 0; round < 20; round++ {
		if round%2 == 1 {
			owner = owner.Merge(0, nil)
		}
		want := freshSort(owner, 0)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			snap := owner.SnapshotShared(0) // the owner's goroutine: a snapshot marks its source
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					got := snap.RowsSorted(xtime.Time(i))
					if len(got) != len(want) || snap.CountAt(xtime.Time(i)) != len(want) || snap.Len() != len(want) {
						t.Errorf("round %d: %d rows, want %d", round, len(got), len(want))
						return
					}
					for j := range got {
						if got[j].Tuple.Compare(want[j].Tuple) != 0 || got[j].Texp != want[j].Texp {
							t.Errorf("round %d: row %d out of order", round, j)
							return
						}
					}
					seen := 0
					snap.AliveAt(xtime.Time(i), func(row Row) {
						if texp, ok := snap.TexpKey(row.Tuple.Key()); !ok || texp != row.Texp {
							t.Errorf("round %d: the scan shows %v@%v, the key map @%v (%v)", round, row.Tuple, row.Texp, texp, ok)
						}
						seen++
					})
					if seen != len(want) {
						t.Errorf("round %d: AliveAt shows %d rows, want %d", round, seen, len(want))
						return
					}
				}
			}()
		}
		// Patches land while the readers run: the first detaches the owner.
		if round%2 == 0 {
			owner.Insert(want[round+1].Tuple, xtime.Time(1000+round))
		}
		for i := 0; i < 10; i++ {
			owner.Insert(tuple.Ints(int64(10_000+round*10+i), 0), xtime.Time(100+round))
		}
		owner.DeleteKey(want[round].Tuple.Key())
		owner.DeleteKey(want[round+30].Tuple.Key()) // leaves a hole for the next round's first insert
		sameRows(t, "owner", owner.RowsSorted(0), freshSort(owner, 0))
		wg.Wait()
	}
}
