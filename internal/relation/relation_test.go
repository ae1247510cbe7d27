package relation

import (
	"testing"
	"testing/quick"

	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// pol builds the paper's Figure 1(a) Politics table:
//
//	texp UID Deg
//	 10   1  25
//	 15   2  25
//	 10   3  35
func pol() *Relation {
	r := New(tuple.IntCols("UID", "Deg"))
	r.Insert(tuple.Ints(1, 25), 10)
	r.Insert(tuple.Ints(2, 25), 15)
	r.Insert(tuple.Ints(3, 35), 10)
	return r
}

// el builds the paper's Figure 1(b) Elections table.
func el() *Relation {
	r := New(tuple.IntCols("UID", "Deg"))
	r.Insert(tuple.Ints(1, 75), 5)
	r.Insert(tuple.Ints(2, 85), 3)
	r.Insert(tuple.Ints(4, 90), 2)
	return r
}

func TestExpTauStrictness(t *testing.T) {
	r := pol()
	// texp=10 means alive at 9, gone at 10: expτ keeps texp > τ.
	if !r.Contains(tuple.Ints(1, 25), 9) {
		t.Error("⟨1,25⟩ must be alive at 9")
	}
	if r.Contains(tuple.Ints(1, 25), 10) {
		t.Error("⟨1,25⟩ must be expired at 10")
	}
	if got := r.CountAt(0); got != 3 {
		t.Errorf("|exp0(Pol)| = %d, want 3", got)
	}
	if got := r.CountAt(10); got != 1 {
		t.Errorf("|exp10(Pol)| = %d, want 1 (only ⟨2,25⟩)", got)
	}
	if got := r.CountAt(15); got != 0 {
		t.Errorf("|exp15(Pol)| = %d, want 0", got)
	}
}

func TestInsertSetSemantics(t *testing.T) {
	r := New(tuple.IntCols("a"))
	if !r.Insert(tuple.Ints(1), 5) {
		t.Error("first insert must report change")
	}
	// Re-insert with smaller texp: no change.
	if r.Insert(tuple.Ints(1), 3) {
		t.Error("smaller texp must not win")
	}
	if texp, _ := r.Texp(tuple.Ints(1)); texp != 5 {
		t.Errorf("texp = %v, want 5", texp)
	}
	// Re-insert with larger texp: extends lifetime.
	if !r.Insert(tuple.Ints(1), 9) {
		t.Error("larger texp must win and report change")
	}
	if texp, _ := r.Texp(tuple.Ints(1)); texp != 9 {
		t.Errorf("texp = %v, want 9", texp)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 (set semantics)", r.Len())
	}
}

func TestInsertClones(t *testing.T) {
	r := New(tuple.IntCols("a", "b"))
	src := tuple.Ints(1, 2)
	r.Insert(src, 10)
	src[1] = tuple.Ints(99)[0]
	rows := r.Rows(0)
	if rows[0].Tuple[1].AsInt() != 2 {
		t.Error("Insert must clone the tuple")
	}
}

func TestDelete(t *testing.T) {
	r := pol()
	if !r.DeleteKey(tuple.Ints(1, 25).Key()) {
		t.Error("delete of present tuple must report true")
	}
	if r.DeleteKey(tuple.Ints(1, 25).Key()) {
		t.Error("second delete must report false")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRemoveExpired(t *testing.T) {
	r := pol()
	removed := r.RemoveExpired(10)
	if len(removed) != 2 {
		t.Errorf("removed %d rows, want 2", len(removed))
	}
	if r.Len() != 1 {
		t.Errorf("Len after sweep = %d, want 1", r.Len())
	}
	if texp, ok := r.Texp(tuple.Ints(2, 25)); !ok || texp != 15 {
		t.Errorf("the survivor is %v,%v, want ⟨2,25⟩ at 15", texp, ok)
	}
}

func TestSnapshotIndependence(t *testing.T) {
	r := pol()
	s := r.Snapshot(9)
	if s.CountAt(9) != 3 {
		// texp 10 and 15 are > 9.
		t.Fatalf("snapshot size = %d, want 3", s.CountAt(9))
	}
	r.DeleteKey(tuple.Ints(1, 25).Key())
	if s.CountAt(9) != 3 {
		t.Error("snapshot must be independent of the source")
	}
}

func TestRowsSortedDeterministic(t *testing.T) {
	r := pol()
	rows := r.RowsSorted(0)
	if len(rows) != 3 {
		t.Fatalf("len = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Tuple.Compare(rows[i].Tuple) >= 0 {
			t.Fatalf("rows not sorted: %v before %v", rows[i-1].Tuple, rows[i].Tuple)
		}
	}
}

func TestRenderContainsHeaderAndRows(t *testing.T) {
	out := pol().Render(0)
	for _, want := range []string{"UID", "Deg", "texp", "25", "35"} {
		if !contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestQuickInsertLookupRoundTrip(t *testing.T) {
	f := func(vals []int64, texps []uint16) bool {
		r := New(tuple.IntCols("v"))
		want := map[int64]xtime.Time{}
		for i, v := range vals {
			var texp xtime.Time = 1
			if i < len(texps) {
				texp = xtime.Time(texps[i]) + 1
			}
			r.Insert(tuple.Ints(v), texp)
			if old, ok := want[v]; !ok || texp > old {
				want[v] = texp
			}
		}
		if r.Len() != len(want) {
			return false
		}
		for v, texp := range want {
			got, ok := r.Texp(tuple.Ints(v))
			if !ok || got != texp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSnapshotMatchesContains(t *testing.T) {
	f := func(vals []int64, tau uint8) bool {
		r := New(tuple.IntCols("v"))
		for i, v := range vals {
			r.Insert(tuple.Ints(v), xtime.Time(i%17))
		}
		s := r.Snapshot(xtime.Time(tau))
		ok := true
		r.All(func(row Row) {
			inSnap := s.Contains(row.Tuple, xtime.Time(tau))
			alive := row.Texp > xtime.Time(tau)
			if inSnap != alive {
				ok = false
			}
		})
		return ok && s.CountAt(xtime.Time(tau)) == r.CountAt(xtime.Time(tau))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// texpBoundHolds is the invariant boundTexpIdx maintains: the texp heap
// never holds more than 2×rows + slack pairs, stale ones included.
func texpBoundHolds(t *testing.T, r *Relation, when string) {
	t.Helper()
	if got, max := r.TexpPending(), 2*r.Len()+slack; got > max {
		t.Fatalf("%s: texp heap holds %d pairs for %d rows (bound %d)", when, got, r.Len(), max)
	}
}

// TestTexpHeapBoundedUnderDeleteChurn: rows with long TTLs inserted and
// deleted over and over never expire, so nothing ever pops their stale
// pairs; the relation must rebuild the heap instead of letting it grow.
func TestTexpHeapBoundedUnderDeleteChurn(t *testing.T) {
	r := New(tuple.IntCols("id"))
	r.EnableTexpIndex()
	const live, rounds = 100, 200
	for round := 0; round < rounds; round++ {
		for i := 0; i < live; i++ {
			r.Insert(tuple.Ints(int64(round*live+i)), 1_000_000)
			texpBoundHolds(t, r, "insert")
		}
		for i := 0; i < live; i++ {
			if !r.DeleteKey(tuple.Ints(int64(round*live + i)).Key()) {
				t.Fatal("delete missed a live row")
			}
			texpBoundHolds(t, r, "delete")
		}
	}
	// live×rounds pairs were pushed in all; without the rebuild they would
	// all still be here.
	if got := r.TexpPending(); got > slack {
		t.Fatalf("empty table keeps %d stale pairs", got)
	}
}

// TestTexpHeapBoundedUnderExtension: extending one key's lifetime again
// and again strands one pair per extension.
func TestTexpHeapBoundedUnderExtension(t *testing.T) {
	r := New(tuple.IntCols("id"))
	r.EnableTexpIndex()
	for texp := xtime.Time(1_000_000); texp < 1_010_000; texp++ {
		r.Insert(tuple.Ints(1), texp)
		texpBoundHolds(t, r, "extension")
	}
	// The one live pair survives every rebuild and still expires the row.
	if removed := r.RemoveExpired(1_009_998); len(removed) != 0 {
		t.Fatal("a stale pair expired the row before its extended texp")
	}
	if removed := r.RemoveExpired(1_009_999); len(removed) != 1 || r.TexpPending() != 0 {
		t.Fatalf("removed %d rows, %d pairs left; want 1 and 0", len(removed), r.TexpPending())
	}
}

// TestRemoveExpiredOrder: expired rows come back in (texp, key) order,
// the order their triggers fire in, whatever the insertion order was.
func TestRemoveExpiredOrder(t *testing.T) {
	r := New(tuple.IntCols("id"))
	r.EnableTexpIndex()
	for _, id := range []int64{5, 3, 9, 1, 7, 2, 8} {
		r.Insert(tuple.Ints(id), xtime.Time(10+id%2))
	}
	if r.ExpiresBy(9) || !r.ExpiresBy(10) {
		t.Fatalf("ExpiresBy(9)=%v ExpiresBy(10)=%v, want false/true", r.ExpiresBy(9), r.ExpiresBy(10))
	}
	var got []int64
	for _, row := range r.RemoveExpired(11) {
		got = append(got, row.Tuple[0].AsInt())
	}
	want := []int64{2, 8, 1, 3, 5, 7, 9}
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("RemoveExpired order = %v, want %v", got, want)
		}
	}
}
