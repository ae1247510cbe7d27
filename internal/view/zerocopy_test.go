package view

import (
	"sort"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// TestReadServesSharedSnapshot: a valid read hands back a zero-copy view
// of the materialisation; later maintenance of the view (patches, a
// refresh) must not disturb the escaped handle.
func TestReadServesSharedSnapshot(t *testing.T) {
	v, err := New("joined", joinExpr(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	rel, info, err := v.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceMaterialised {
		t.Fatalf("source = %s, want materialised", info.Source)
	}
	want := rel.RowsSorted(0)

	// Refresh the view at a later instant: the handle served earlier must
	// keep answering exactly as before.
	if err := v.Materialize(4); err != nil {
		t.Fatal(err)
	}
	got := rel.RowsSorted(0)
	if len(got) != len(want) {
		t.Fatalf("escaped read handle changed: %d rows, had %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || got[i].Texp != want[i].Texp {
			t.Fatalf("escaped read handle changed at row %d", i)
		}
	}
}

// TestPatchedViewDetachesFromEscapedReads: applying Theorem 3 patches
// mutates the materialisation in place; reads served before the patch
// must not see the patched tuple appear retroactively.
func TestPatchedViewDetachesFromEscapedReads(t *testing.T) {
	v, err := New("diff", diffExpr(t), WithPatching())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	before, _, err := v.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	n0 := before.CountAt(0)

	// Reading at τ=3 applies the due patch (UID 2 reappears when it
	// expires in El) into the materialisation.
	after, _, err := v.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if after.CountAt(3) <= before.CountAt(3) {
		t.Fatalf("patch did not surface: %d ≤ %d", after.CountAt(3), before.CountAt(3))
	}
	if before.CountAt(0) != n0 {
		t.Fatal("patch leaked into a read served before it")
	}
}

// TestReadAllocsConstant pins the zero-copy serve path: reading a valid
// materialised view must cost a small constant number of allocations,
// independent of the materialisation size (the old path deep-copied all
// n rows).
func TestReadAllocsConstant(t *testing.T) {
	polR := relation.New(tuple.IntCols("UID", "Deg"))
	for i := 0; i < 5000; i++ {
		reltest.MustInsertInts(polR, xtime.Time(1000+i), int64(i), int64(i%100))
	}
	v, err := New("pol", algebra.NewBase("Pol", polR))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := v.Read(1); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("serve-from-materialisation read allocates %.1f objects/op for 5000 rows, want ≤ 2", n)
	}
}

// freshSort is RowsSorted of a store not in order: collect the alive rows
// and sort them, on every call.
func freshSort(rel *relation.Relation, tau xtime.Time) []relation.Row {
	rows := rel.Rows(tau)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tuple.Compare(rows[j].Tuple) < 0 })
	return rows
}

func sameRows(t *testing.T, what string, got, want []relation.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || got[i].Texp != want[i].Texp {
			t.Fatalf("%s: row %d is %v@%v, want %v@%v", what, i, got[i].Tuple, got[i].Texp, want[i].Tuple, want[i].Texp)
		}
	}
}

// TestReadOrderAcrossPatchAndRefresh: the reads between two changes of the
// materialisation share one in-order store, so the order has to survive
// exactly what the rows survive. Read, Theorem 3 patch, read, REFRESH, read: every
// RowsSorted equals a fresh sort of the same handle, a caller that
// re-sorts its slice disturbs nobody, and a handle served before the patch
// keeps the pre-patch answer.
func TestReadOrderAcrossPatchAndRefresh(t *testing.T) {
	// Pol holds uids 0..59; El hides 0..29 until its rows expire at 5
	// (even uids) and 8 (odd): thirty rows to start, fifteen re-enter at
	// each of the two patch instants.
	polR := relation.New(tuple.IntCols("UID", "Deg"))
	elR := relation.New(tuple.IntCols("UID", "Deg"))
	for i := int64(0); i < 60; i++ {
		reltest.MustInsertInts(polR, xtime.Time(100+i%7), (i*37)%60, i)
		if uid := (i * 37) % 60; uid < 30 {
			reltest.MustInsertInts(elR, xtime.Time(5+3*(uid%2)), uid, 0)
		}
	}
	p1, err := algebra.NewProject([]int{0}, algebra.NewBase("Pol", polR))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := algebra.NewProject([]int{0}, algebra.NewBase("El", elR))
	if err != nil {
		t.Fatal(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New("diff", d, WithPatching())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}

	// read reads twice at tau and checks both answers against a fresh
	// sort, reversing the first caller's slice in between.
	read := func(tau xtime.Time, wantRows, wantPatches int) *relation.Relation {
		t.Helper()
		rel, info, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		if info.PatchesApplied != wantPatches {
			t.Fatalf("read at %v applied %d patches, want %d", tau, info.PatchesApplied, wantPatches)
		}
		want := freshSort(rel, tau)
		if len(want) != wantRows {
			t.Fatalf("read at %v: %d rows, want %d", tau, len(want), wantRows)
		}
		mine := rel.RowsSorted(tau)
		sameRows(t, "first caller", mine, want)
		for i, j := 0, len(mine)-1; i < j; i, j = i+1, j-1 {
			mine[i], mine[j] = mine[j], mine[i]
		}
		again, _, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "second read after the first caller reversed its slice", again.RowsSorted(tau), want)
		sameRows(t, "first handle again", rel.RowsSorted(tau), want)
		return rel
	}

	before := read(0, 30, 0)
	kept := freshSort(before, 0)
	read(4, 30, 0)
	read(5, 45, 15) // the patch detaches the materialisation from `before`
	sameRows(t, "handle served before the patch", before.RowsSorted(0), kept)
	read(7, 45, 0)
	read(8, 60, 15)
	if err := v.Materialize(9); err != nil { // REFRESH
		t.Fatal(err)
	}
	read(9, 60, 0)
	sameRows(t, "handle served before the refresh", before.RowsSorted(0), kept)
	if s := v.Stats(); s.Recomputations != 0 || s.PatchesApplied != 30 {
		t.Fatalf("stats %+v: want 30 patches and no read-triggered recomputation", s)
	}
}
