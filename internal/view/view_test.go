package view

import (
	"errors"
	"math/rand"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// figure1DB rebuilds the paper's example database.
func figure1DB() (polR, elR *relation.Relation) {
	polR = relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(polR, 10, 1, 25)
	reltest.MustInsertInts(polR, 15, 2, 25)
	reltest.MustInsertInts(polR, 10, 3, 35)
	elR = relation.New(tuple.IntCols("UID", "Deg"))
	reltest.MustInsertInts(elR, 5, 1, 75)
	reltest.MustInsertInts(elR, 3, 2, 85)
	reltest.MustInsertInts(elR, 2, 4, 90)
	return polR, elR
}

// diffExpr builds πexp_1(Pol) −exp πexp_1(El).
func diffExpr(t *testing.T) *algebra.Diff {
	t.Helper()
	polR, elR := figure1DB()
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
	return d
}

func joinExpr(t *testing.T) algebra.Expr {
	t.Helper()
	polR, elR := figure1DB()
	j, err := algebra.EquiJoin(algebra.NewBase("Pol", polR), 0, algebra.NewBase("El", elR), 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestMonotonicViewNeverRecomputes(t *testing.T) {
	v, err := New("joined", joinExpr(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if v.Texp() != xtime.Infinity {
		t.Fatalf("texp = %v, want ∞", v.Texp())
	}
	for tau := xtime.Time(0); tau <= 30; tau++ {
		rel, info, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		if info.Source != SourceMaterialised {
			t.Fatalf("read at %v from %s, want materialised", tau, info.Source)
		}
		// Compare against fresh evaluation.
		fresh, err := algebra.EvalStream(joinExpr(t), tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(fresh, rel, tau) {
			t.Fatalf("view diverges at %v", tau)
		}
	}
	if s := v.Stats(); s.Recomputations != 0 || s.ServedFromMat != 31 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDiffViewRecomputesOnInvalid(t *testing.T) {
	v, err := New("d", diffExpr(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if v.Texp() != 3 {
		t.Fatalf("texp = %v, want 3", v.Texp())
	}
	// Valid reads at 0..2, recomputation at 3.
	for tau := xtime.Time(0); tau <= 2; tau++ {
		_, info, err := v.Read(tau)
		if err != nil || info.Source != SourceMaterialised {
			t.Fatalf("read at %v: %v, %v", tau, info, err)
		}
	}
	rel, info, err := v.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceRecomputed {
		t.Fatalf("read at 3 from %s, want recomputed", info.Source)
	}
	if !rel.Contains(tuple.Ints(2), 3) {
		t.Error("⟨2⟩ missing after recomputation at 3")
	}
	if s := v.Stats(); s.Recomputations != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDiffViewRejectPolicy(t *testing.T) {
	v, err := New("d", diffExpr(t), WithRecovery(RecoverReject))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(2); err != nil {
		t.Fatalf("read at 2: %v", err)
	}
	_, _, err = v.Read(3)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("read at 3: %v, want ErrInvalid", err)
	}
}

func TestPatchedViewNeverRecomputes(t *testing.T) {
	d := diffExpr(t)
	v, err := New("patched", d, WithPatching())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	// Theorem 3: effective expiration time is ∞.
	if v.Texp() != xtime.Infinity {
		t.Fatalf("patched texp = %v, want ∞", v.Texp())
	}
	if v.PendingPatches() != 2 {
		t.Fatalf("pending patches = %d, want 2 (= |R ∩ S|)", v.PendingPatches())
	}
	for tau := xtime.Time(0); tau <= 20; tau++ {
		rel, info, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		if info.Source != SourceMaterialised {
			t.Fatalf("read at %v from %s, want materialised (Theorem 3)", tau, info.Source)
		}
		fresh, err := algebra.EvalStream(diffExpr(t), tau)
		if err != nil {
			t.Fatal(err)
		}
		if !reltest.EqualAt(fresh, rel, tau) {
			t.Fatalf("patched view diverges at %v:\nview:\n%s\nfresh:\n%s",
				tau, rel.Render(tau), fresh.Render(tau))
		}
	}
	s := v.Stats()
	if s.Recomputations != 0 {
		t.Errorf("patched view recomputed %d times", s.Recomputations)
	}
	if s.PatchesApplied != 2 {
		t.Errorf("patches applied = %d, want 2", s.PatchesApplied)
	}
}

func TestPatchingRequiresDiffRoot(t *testing.T) {
	if _, err := New("bad", joinExpr(t), WithPatching()); err == nil {
		t.Error("patching accepted for non-difference root")
	}
}

func TestIntervalModeServesAfterRevalidation(t *testing.T) {
	// The difference view becomes valid again at 15, once both critical
	// tuples have expired in Pol.
	v, err := New("d", diffExpr(t), WithMode(ModeInterval), WithRecovery(RecoverReject))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(2); err != nil {
		t.Fatalf("read at 2: %v", err)
	}
	if _, _, err := v.Read(7); !errors.Is(err, ErrInvalid) {
		t.Fatalf("read at 7: %v, want ErrInvalid", err)
	}
	rel, info, err := v.Read(16)
	if err != nil {
		t.Fatalf("read at 16: %v (validity %s)", err, v.Validity())
	}
	if info.Source != SourceMaterialised {
		t.Fatalf("read at 16 from %s, want materialised", info.Source)
	}
	if rel.CountAt(16) != 0 {
		t.Errorf("result at 16 must be empty:\n%s", rel.Render(16))
	}
}

func TestMoveBackward(t *testing.T) {
	v, err := New("d", diffExpr(t), WithMode(ModeInterval), WithRecovery(RecoverBackward))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	// Invalid during [3, 15[: a read at 7 is answered as of time 2.
	rel, info, err := v.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceMovedBackward || info.At != 2 {
		t.Fatalf("info = %+v, want moved-backward at 2", info)
	}
	if !rel.Contains(tuple.Ints(3), 2) {
		t.Error("moved-backward answer must reflect time 2")
	}
}

func TestMoveForward(t *testing.T) {
	v, err := New("d", diffExpr(t), WithMode(ModeInterval), WithRecovery(RecoverForward))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	_, info, err := v.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceMovedForward || info.At != 15 {
		t.Fatalf("info = %+v, want moved-forward at 15", info)
	}
}

// TestReadBelowTheFloor: a read that sheds rows of the materialisation —
// every join row dead at 16, the difference's births applied and its dead
// compacted away — leaves no earlier instant to it: a read there, served,
// moved or recomputed, is the evaluation at the instant it answers.
func TestReadBelowTheFloor(t *testing.T) {
	views := map[string][]Option{
		"join":          nil,
		"patched diff":  {WithPatching()},
		"backward diff": {WithMode(ModeInterval), WithRecovery(RecoverBackward)},
	}
	for name, opts := range views {
		expr := algebra.Expr(diffExpr(t))
		if name == "join" {
			expr = joinExpr(t)
		}
		v, err := New(name, expr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Materialize(0); err != nil {
			t.Fatal(err)
		}
		for _, tau := range []xtime.Time{16, 4, 2} {
			rel, info, err := v.Read(tau)
			want, werr := algebra.Evaluate(expr, info.At)
			if err != nil || werr != nil || !reltest.EqualAt(rel, want.Rel, info.At) {
				t.Fatalf("%s read at %v, answered at %v (%v):\n%swant\n%s", name, tau, info.At, err, rel.Render(info.At), want.Rel.Render(info.At))
			}
		}
	}
}

func TestMovedRecoveryRequiresIntervalMode(t *testing.T) {
	if _, err := New("d", diffExpr(t), WithRecovery(RecoverBackward)); err == nil {
		t.Error("backward recovery accepted without interval mode")
	}
}

func TestAlwaysRecomputeBaseline(t *testing.T) {
	v, err := New("ttl", diffExpr(t), WithMode(ModeAlwaysRecompute))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Materialize(0); err != nil {
		t.Fatal(err)
	}
	for tau := xtime.Time(0); tau < 5; tau++ {
		_, info, err := v.Read(tau)
		if err != nil {
			t.Fatal(err)
		}
		if info.Source != SourceRecomputed {
			t.Fatalf("baseline served from %s", info.Source)
		}
	}
	if s := v.Stats(); s.Recomputations != 5 || s.ServedFromMat != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReadBeforeMaterializeFails(t *testing.T) {
	v, err := New("d", diffExpr(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Read(0); err == nil {
		t.Error("read before materialise must fail")
	}
}

// TestPatchedViewRandom drives patched difference views over random data
// and checks Theorem 3 end to end.
func TestPatchedViewRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		r := relation.New(tuple.IntCols("v"))
		s := relation.New(tuple.IntCols("v"))
		for i := 0; i < 12; i++ {
			reltest.MustInsertInts(r, xtime.Time(1+rng.Intn(25)), int64(rng.Intn(8)))
			reltest.MustInsertInts(s, xtime.Time(1+rng.Intn(25)), int64(rng.Intn(8)))
		}
		d, err := algebra.NewDiff(algebra.NewBase("R", r), algebra.NewBase("S", s))
		if err != nil {
			t.Fatal(err)
		}
		v, err := New("p", d, WithPatching())
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Materialize(0); err != nil {
			t.Fatal(err)
		}
		for tau := xtime.Time(0); tau <= 28; tau++ {
			rel, info, err := v.Read(tau)
			if err != nil {
				t.Fatal(err)
			}
			if info.Source != SourceMaterialised {
				t.Fatalf("trial %d: recomputed at %v despite patching", trial, tau)
			}
			fresh, err := algebra.EvalStream(d, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !reltest.EqualAt(fresh, rel, tau) {
				t.Fatalf("trial %d: patched view diverges at %v\nview:\n%s\nfresh:\n%s",
					trial, tau, rel.Render(tau), fresh.Render(tau))
			}
		}
	}
}
