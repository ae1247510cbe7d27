package relation

import (
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

func bigPol(n int) *Relation {
	r := New(tuple.IntCols("a", "b"))
	for i := 0; i < n; i++ {
		r.MustInsertInts(xtime.Time(10+i%50), int64(i), int64(i%7))
	}
	return r
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
		if !shared.EqualAt(phys, 0) {
			t.Fatalf("shared snapshot at %v diverges from physical", tau)
		}
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
	r := New(tuple.IntCols("a", "b"))
	r.MustInsertInts(10, 1, 1)
	r.MustInsertInts(20, 2, 2)
	snap := r.SnapshotShared(0)

	r.MustInsertInts(30, 3, 3)     // new tuple
	r.Insert(tuple.Ints(1, 1), 99) // lifetime extension
	r.Delete(tuple.Ints(2, 2))     // deletion
	r.RemoveExpired(15)            // physical sweep

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
	r := New(tuple.IntCols("a", "b"))
	r.MustInsertInts(10, 1, 1)
	snap := r.SnapshotShared(0)
	snap.MustInsertInts(50, 9, 9)
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
	r := New(tuple.IntCols("a", "b"))
	r.MustInsertInts(10, 1, 1)
	r.MustInsertInts(20, 2, 2)
	s1 := r.SnapshotShared(5)
	s2 := s1.SnapshotShared(15) // row ⟨1,1⟩ (texp 10) dead here
	if s2.CountAt(0) != 1 {
		t.Fatalf("chained snapshot sees %d rows, want 1", s2.CountAt(0))
	}
	if s2.Contains(tuple.Ints(1, 1), 0) {
		t.Fatal("chained snapshot resurrects a row dead at its instant")
	}
}

// TestInsertOwnedSetSemantics: InsertOwned keeps the max expiration on
// duplicates, like Insert, without cloning the tuple.
func TestInsertOwnedSetSemantics(t *testing.T) {
	r := New(tuple.IntCols("a", "b"))
	tp := tuple.Ints(1, 2)
	if !r.InsertOwned(tp.Key(), tp, 10) {
		t.Fatal("first InsertOwned must change the relation")
	}
	if r.InsertOwned(tp.Key(), tp, 5) {
		t.Fatal("shorter lifetime must not win")
	}
	if !r.InsertOwned(tp.Key(), tp, 20) {
		t.Fatal("longer lifetime must win")
	}
	if texp, _ := r.Texp(tp); texp != 20 {
		t.Fatalf("texp = %v, want 20", texp)
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
// detaching is void, and the source keeps everything.
func TestDeleteThroughACompactingDetach(t *testing.T) {
	r := New(tuple.IntCols("a", "b"))
	for i := 0; i < 3000; i++ {
		r.MustInsertInts(10, int64(i), 0)
	}
	r.MustInsertInts(100, 5000, 0)
	r.MustInsertInts(100, 5001, 0)
	s := r.SnapshotShared(50)
	if !s.Delete(tuple.Ints(5001, 0)) {
		t.Fatal("the snapshot's delete missed a live row")
	}
	if s.Len() != 1 || !s.Contains(tuple.Ints(5000, 0), 50) || len(s.slots) != 2 {
		t.Fatalf("after the delete the snapshot holds %d rows in %d slots, want ⟨5000,0⟩ and a hole", s.Len(), len(s.slots))
	}
	if r.Len() != 3002 || !r.Contains(tuple.Ints(5001, 0), 50) {
		t.Fatal("the snapshot's delete reached the source")
	}
}
