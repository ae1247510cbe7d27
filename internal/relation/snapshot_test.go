package relation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// bigPol is a base table ⟨a, b⟩ of n rows, with its column arrays.
func bigPol(n int) *Relation {
	r := New(tuple.IntCols("a", "b"))
	r.EnableIntArrays()
	for i := 0; i < n; i++ {
		r.Insert(tuple.Ints(int64(i), int64(i%7)), xtime.Time(10+i%50))
	}
	return r
}

// arraysAgree fails unless every column array of r is as long as the slot
// array and holds, in each slot that is not a hole, that row's INT.
func arraysAgree(t *testing.T, r *Relation) {
	t.Helper()
	for c, vals := range r.ints {
		if vals == nil {
			continue
		}
		if len(vals) != len(r.slots) {
			t.Fatalf("column %d: %d array entries for %d slots", c, len(vals), len(r.slots))
		}
		for s, row := range r.slots {
			if row.Texp == hole {
				continue
			}
			if v, ok := row.Tuple[c].Int64(); !ok || v != vals[s] {
				t.Fatalf("slot %d, column %d: the array holds %d, the tuple %v", s, c, vals[s], row.Tuple)
			}
		}
	}
}

// TestSnapshotSharedZeroCopy: taking a shared snapshot is O(1) — the cost
// must not depend on the relation size. One allocation: the header.
func TestSnapshotSharedZeroCopy(t *testing.T) {
	r := bigPol(2000)
	if n := testing.AllocsPerRun(100, func() {
		_ = r.SnapshotShared(5)
	}); n > 1 {
		t.Fatalf("SnapshotShared allocates %.1f objects/op, want ≤ 1", n)
	}
}

// TestSnapshotSharedEqualsSnapshot: the lazy alive-at-τ filter makes a
// shared snapshot observationally identical to a physical Snapshot at the
// same instant, through every accessor.
func TestSnapshotSharedEqualsSnapshot(t *testing.T) {
	r := bigPol(200)
	for _, tau := range []xtime.Time{0, 15, 40, 70} {
		phys := r.Snapshot(tau)
		shared := r.SnapshotShared(tau)
		sameRows(t, fmt.Sprintf("shared snapshot at %v", tau), shared.RowsSorted(0), phys.RowsSorted(0))
		if shared.Len() != phys.Len() {
			t.Fatalf("Len: shared %d, physical %d", shared.Len(), phys.Len())
		}
		// Accessors must not reveal rows dead at the snapshot instant,
		// whatever earlier tau a caller passes.
		if shared.CountAt(0) != phys.Len() {
			t.Fatalf("CountAt(0) = %d leaks pre-snapshot rows (want %d)", shared.CountAt(0), phys.Len())
		}
		if len(shared.Rows(0)) != len(phys.Rows(0)) {
			t.Fatal("Rows leaks pre-snapshot rows")
		}
	}
}

// TestSnapshotSharedImmutableUnderSourceMutation: mutations of the source
// after the snapshot (insert, lifetime extension, delete, expiry sweep)
// must not show through — the first write detaches via copy-on-write.
func TestSnapshotSharedImmutableUnderSourceMutation(t *testing.T) {
	r := bigPol(0)
	r.Insert(tuple.Ints(1, 1), 10)
	r.Insert(tuple.Ints(2, 2), 20)
	snap := r.SnapshotShared(0)

	for _, step := range []func(){
		func() { r.Insert(tuple.Ints(3, 3), 30) },      // new tuple
		func() { r.Insert(tuple.Ints(1, 1), 99) },      // lifetime extension
		func() { r.DeleteKey(tuple.Ints(2, 2).Key()) }, // deletion
		func() { r.RemoveExpired(15) },                 // physical sweep
	} {
		step()
		arraysAgree(t, r)
	}

	if snap.CountAt(0) != 2 {
		t.Fatalf("snapshot sees %d rows after source mutations, want 2", snap.CountAt(0))
	}
	if texp, ok := snap.Texp(tuple.Ints(1, 1)); !ok || texp != 10 {
		t.Fatalf("snapshot texp(⟨1,1⟩) = %v,%v — leaked the extension", texp, ok)
	}
	if !snap.Contains(tuple.Ints(2, 2), 0) {
		t.Fatal("snapshot lost a row deleted later in the source")
	}
}

// TestSnapshotSharedMutableHandle: the snapshot handle itself detaches on
// its first mutation, leaving the source untouched.
func TestSnapshotSharedMutableHandle(t *testing.T) {
	r := bigPol(0)
	r.Insert(tuple.Ints(1, 1), 10)
	snap := r.SnapshotShared(0)
	snap.Insert(tuple.Ints(9, 9), 50)
	arraysAgree(t, r)
	if snap.ints != nil {
		t.Fatal("the snapshot detached with the source's column arrays")
	}
	if r.Contains(tuple.Ints(9, 9), 0) {
		t.Fatal("mutating the snapshot leaked into the source")
	}
	if !snap.Contains(tuple.Ints(9, 9), 0) || !snap.Contains(tuple.Ints(1, 1), 0) {
		t.Fatal("snapshot mutation lost rows")
	}
}

// TestSnapshotSharedChained: a snapshot of a snapshot composes the floors
// (the later instant wins) and stays immutable.
func TestSnapshotSharedChained(t *testing.T) {
	r := bigPol(0)
	r.Insert(tuple.Ints(1, 1), 10)
	r.Insert(tuple.Ints(2, 2), 20)
	s1 := r.SnapshotShared(5)
	s2 := s1.SnapshotShared(15) // row ⟨1,1⟩ (texp 10) dead here
	arraysAgree(t, r)
	if s2.CountAt(0) != 1 {
		t.Fatalf("chained snapshot sees %d rows, want 1", s2.CountAt(0))
	}
	if s2.Contains(tuple.Ints(1, 1), 0) {
		t.Fatal("chained snapshot resurrects a row dead at its instant")
	}
}

// TestInsertOwnedSetSemantics: InsertOwnedRow keeps the max expiration on
// duplicates, like Insert, and reports only the first as added.
func TestInsertOwnedSetSemantics(t *testing.T) {
	r := New(tuple.IntCols("a", "b"))
	tp := tuple.Ints(1, 2)
	for i, step := range []struct {
		texp, want xtime.Time
		added      bool
	}{{10, 10, true}, {5, 10, false}, {20, 20, false}} {
		added := r.InsertOwnedRow(Row{Tuple: tp, Texp: step.texp})
		if texp, _ := r.Texp(tp); added != step.added || texp != step.want {
			t.Fatalf("insert %d @%v: added %v, texp %v; want %v, %v", i, step.texp, added, texp, step.added, step.want)
		}
	}
}

// TestRowsUnsortedMatchesSorted: Rows and RowsSorted return the same
// multiset; only the order differs.
func TestRowsUnsortedMatchesSorted(t *testing.T) {
	r := bigPol(100)
	fast := r.Rows(20)
	sorted := r.RowsSorted(20)
	if len(fast) != len(sorted) {
		t.Fatalf("Rows %d vs RowsSorted %d", len(fast), len(sorted))
	}
	seen := make(map[string]xtime.Time, len(fast))
	for _, row := range fast {
		seen[row.Tuple.Key()] = row.Texp
	}
	for _, row := range sorted {
		if seen[row.Tuple.Key()] != row.Texp {
			t.Fatalf("row %v missing or texp mismatch", row.Tuple)
		}
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Tuple.Compare(sorted[i].Tuple) >= 0 {
			t.Fatal("RowsSorted not sorted")
		}
	}
}

// TestDeleteThroughACompactingDetach: a snapshot taken past the expiration
// of nearly all of a large store detaches into a copy that is compacted on
// the spot, every slot renumbered — the slot its delete looked up before
// detaching is void, and the source keeps everything. Then the source
// sweeps the 3 000 and compacts too, its column arrays with its slots.
func TestDeleteThroughACompactingDetach(t *testing.T) {
	r := bigPol(0)
	for i := 0; i < 3000; i++ {
		r.Insert(tuple.Ints(int64(i), 0), 10)
	}
	r.Insert(tuple.Ints(5000, 0), 100)
	r.Insert(tuple.Ints(5001, 0), 100)
	s := r.SnapshotShared(50)
	if !s.DeleteKey(tuple.Ints(5001, 0).Key()) {
		t.Fatal("the snapshot's delete missed a live row")
	}
	if s.Len() != 1 || !s.Contains(tuple.Ints(5000, 0), 50) || len(s.slots) != 2 {
		t.Fatalf("after the delete the snapshot holds %d rows in %d slots, want ⟨5000,0⟩ and a hole", s.Len(), len(s.slots))
	}
	if r.Len() != 3002 || !r.Contains(tuple.Ints(5001, 0), 50) {
		t.Fatal("the snapshot's delete reached the source")
	}
	arraysAgree(t, r)
	r.RemoveExpired(50)
	if r.Len() != 2 || len(r.slots) != 2 {
		t.Fatalf("after the sweep the source holds %d rows in %d slots, want 2 in 2", r.Len(), len(r.slots))
	}
	arraysAgree(t, r)
	scanAgrees(t, r, 50, []IntRange{{Col: 0, Lo: 5001, Hi: 6000}}, nil)
}

// scanAgrees fails unless ScanInts streams, each once, exactly the rows of
// AliveAt whose tuples lie in ranges and in.
func scanAgrees(t *testing.T, r *Relation, tau xtime.Time, ranges []IntRange, in []int64) {
	t.Helper()
	var set *IntSet
	if in != nil {
		set = NewIntSet(1, slices.Clone(in))
	}
	want := map[string]xtime.Time{}
	r.AliveAt(tau, func(row Row) {
		for _, rg := range ranges {
			if v := row.Tuple[rg.Col].AsInt(); v < rg.Lo || v > rg.Hi {
				return
			}
		}
		if in == nil || slices.Contains(in, row.Tuple[1].AsInt()) {
			want[row.Tuple.Key()] = row.Texp
		}
	})
	n := 0
	r.ScanInts(tau, ranges, set, func(row Row) {
		if texp, ok := want[row.Tuple.Key()]; !ok || texp != row.Texp {
			t.Fatalf("ScanInts(%v, %v, %v) streams %v@%v", tau, ranges, in, row.Tuple, row.Texp)
		}
		n++
	})
	if n != len(want) {
		t.Fatalf("ScanInts(%v, %v, %v) streams %d rows, want %d", tau, ranges, in, n, len(want))
	}
}

// TestIntSetMatchesMap holds an IntSet to a map of its keys: Has, and
// ScanInts with it alone, under an interval that cuts the key column and
// under one on another column. The key sets are the edges of the dense
// rule (a bitmap while the span is no more than 64 bits a key + 4 096):
// empty, one key, duplicates, MinInt64 and MaxInt64 alone and together, and
// two keys whose span is one below, at and one above the limit, so a bitmap
// a bit short or a word short of its span loses its last key.
func TestIntSetMatchesMap(t *testing.T) {
	const limit = 64*2 + 4096 // the densest span two keys may have as a bitmap
	sets := []struct {
		keys  []int64
		dense bool
	}{
		{[]int64{}, true},
		{[]int64{42}, true},
		{[]int64{7, -3, 7, 7, -3}, true},
		{[]int64{math.MinInt64}, true},
		{[]int64{math.MaxInt64, math.MaxInt64 - 4000}, true},
		{[]int64{math.MinInt64, math.MaxInt64}, false},
		{[]int64{-5, -5 + limit - 2}, true},
		{[]int64{-5, -5 + limit - 1}, true},
		{[]int64{-5, -5 + limit}, false},
		{[]int64{math.MaxInt64 - limit + 1, math.MaxInt64}, true},
	}
	for _, set := range sets {
		in := NewIntSet(1, slices.Clone(set.keys))
		if in.Dense() != set.dense {
			t.Errorf("NewIntSet(%v) dense %v, want %v", set.keys, in.Dense(), set.dense)
		}
		probes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, k := range set.keys {
			probes = append(probes, k-64, k-1, k, k+1, k+63, k+64)
		}
		r := New(tuple.IntCols("i", "v"))
		for i, v := range probes {
			r.Insert(tuple.Ints(int64(i), v), xtime.Time(10+i%3))
		}
		r.EnableIntArrays()
		for _, v := range probes {
			if got, want := in.Has(v), slices.Contains(set.keys, v); got != want {
				t.Errorf("NewIntSet(%v).Has(%d) = %v, want %v", set.keys, v, got, want)
			}
		}
		for _, tau := range []xtime.Time{0, 10} {
			scanAgrees(t, r, tau, nil, set.keys)
			scanAgrees(t, r, tau, []IntRange{{Col: 1, Lo: -4, Hi: math.MaxInt64 - 1}}, set.keys)
			scanAgrees(t, r, tau, []IntRange{{Col: 0, Lo: 3, Hi: int64(len(probes)) - 3}}, set.keys)
		}
	}
}

// TestIntArraysFollowTheSlots walks a base table's column arrays through
// each store operation — an insert at the end, a delete and the insert
// that reuses its slot, a lifetime extension, a detach after SnapshotShared,
// a compaction — and a FLOAT and a NULL that make their columns drop their
// arrays; after every step the arrays hold the tuples' INTs and ScanInts
// agrees with AliveAt. Snapshots and copies never get the arrays.
func TestIntArraysFollowTheSlots(t *testing.T) {
	r := New(tuple.IntCols("a", "b", "c"))
	for i := int64(0); i < 40; i++ {
		r.Insert(tuple.Ints(i, i%5, -i), xtime.Time(10+i))
	}
	r.EnableIntArrays() // the backfill
	var snaps []*Relation
	steps := []func(){
		func() { r.Insert(tuple.Ints(100, 2, 0), 90) },
		func() { r.DeleteKey(tuple.Ints(7, 2, -7).Key()) },
		func() { r.Insert(tuple.Ints(101, 3, 1), 90) }, // into slot 7
		func() { r.Insert(tuple.Ints(3, 3, -3), 95) },
		func() { snaps = append(snaps, r.SnapshotShared(20), r.Snapshot(0), r.Snapshot(r.floor)) },
		func() { r.DeleteKey(tuple.Ints(30, 0, -30).Key()) }, // detaches, dropping the rows dead at the floor
		func() {
			for i := int64(0); i < 2000; i++ {
				r.Insert(tuple.Ints(1000+i, i%5, i), 30)
			}
		},
		func() { r.RemoveExpired(30) }, // compacts
		func() { r.Insert(tuple.T(value.Int(200), value.Float(2), value.Int(0)), 90) },
		func() { r.Insert(tuple.T(value.Int(201), value.Int(4), value.Null), 90) },
	}
	for i, step := range steps {
		step()
		arraysAgree(t, r)
		for _, tau := range []xtime.Time{0, 25, 40} {
			scanAgrees(t, r, tau, []IntRange{{Col: 0, Lo: 5, Hi: 150}}, nil)
			scanAgrees(t, r, tau, []IntRange{{Col: 0, Lo: 9, Hi: 8}}, nil)
			if r.HasIntArray(2) {
				scanAgrees(t, r, tau, []IntRange{{Col: 0, Lo: 20, Hi: 1500}, {Col: 2, Lo: -25, Hi: 700}}, nil)
			}
			if r.HasIntArray(1) {
				scanAgrees(t, r, tau, nil, []int64{2, 3, 3})
				scanAgrees(t, r, tau, []IntRange{{Col: 0, Lo: 0, Hi: 1100}}, []int64{0, 4})
			}
		}
		if i == 7 && len(r.slots) != r.Len() {
			t.Fatalf("the sweep left %d slots for %d rows: no compaction", len(r.slots), r.Len())
		}
	}
	if !r.HasIntArray(0) || r.HasIntArray(1) || r.HasIntArray(2) {
		t.Fatalf("arrays a %v, b %v, c %v; want a only", r.HasIntArray(0), r.HasIntArray(1), r.HasIntArray(2))
	}
	for _, s := range snaps {
		if s.ints != nil {
			t.Fatal("a snapshot or copy has column arrays")
		}
	}
}
