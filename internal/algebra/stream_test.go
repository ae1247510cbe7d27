package algebra

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// TestStreamEvalEquivalenceRandom: the streaming executor is
// indistinguishable from the materialising one — same tuples, same
// per-tuple expiration times — on random monotonic expressions, at the
// evaluation instant and at every later instant (so the derived texp
// values agree exactly, not just the alive sets).
func TestStreamEvalEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), true)
		tau := xtime.Time(rng.Intn(10))
		want, err := e.Eval(tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := EvalStream(e, tau)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for tau2 := tau; tau2 <= 24; tau2++ {
			if !got.EqualAt(want, tau2) {
				t.Fatalf("trial %d: Stream ≢ Eval for %s at τ=%v checked τ′=%v\nstream:\n%s\neval:\n%s",
					trial, e, tau, tau2, got.Render(tau2), want.Render(tau2))
			}
		}
	}
}

// TestStreamEvalEquivalenceNonMonotonic: random trees with aggregation and
// difference anywhere in them. Eval and ExprTexp of those two operators read
// the same pass EvalStream runs, so the oracle is the reference evaluator:
// rows, per-tuple expiration times and texp(e) must match it.
func TestStreamEvalEquivalenceNonMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), false)
		checkAgainstReference(t, fmt.Sprintf("trial %d: %s", trial, e), e, xtime.Time(rng.Intn(10)))
	}
}

// bigRel builds a base relation large enough (≥ 2·streamChunk rows) that
// the parallel chunked paths actually engage.
func bigRel(rng *rand.Rand, name string, n int) *Base {
	r := relation.New(tuple.IntCols("a", "b"))
	for i := 0; i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(50))
		if rng.Intn(10) == 0 {
			texp = xtime.Infinity
		}
		r.MustInsertInts(texp, int64(rng.Intn(100)), int64(rng.Intn(20)))
	}
	return NewBase(name, r)
}

// TestStreamParallelEquivalence forces a multi-worker pool on inputs big
// enough to chunk, covering the fused parallel base scan (σ over a base)
// and the parallel hash-join probe, and checks the results against Eval.
func TestStreamParallelEquivalence(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	rng := rand.New(rand.NewSource(53))
	n := 4 * streamChunk
	l := bigRel(rng, "L", n)
	r := bigRel(rng, "S", n)

	sel, err := NewSelect(ColConst{Col: 1, Op: OpLt, Const: value.Int(10)}, l)
	if err != nil {
		t.Fatal(err)
	}
	join, err := EquiJoin(l, 0, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	selJoin, err := NewSelect(ColConst{Col: 1, Op: OpGe, Const: value.Int(5)}, join)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{sel, join, selJoin} {
		for _, tau := range []xtime.Time{0, 7, 25} {
			want, err := e.Eval(tau)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalStream(e, tau)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAt(want, tau) {
				t.Fatalf("parallel Stream ≢ Eval for %s at τ=%v (|stream|=%d, |eval|=%d)",
					e, tau, got.CountAt(tau), want.CountAt(tau))
			}
		}
	}
}

// TestParallelFilterMapOrder: the merge is deterministic — rows come out
// in input order no matter how the workers are scheduled.
func TestParallelFilterMapOrder(t *testing.T) {
	prev := SetParallelism(8)
	defer SetParallelism(prev)

	n := 10*streamChunk + 37 // deliberately not a chunk multiple
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{Tuple: tuple.Ints(int64(i)), Texp: xtime.Infinity}
	}
	for rep := 0; rep < 5; rep++ {
		var got []int64
		parallelFilterMap(rows, func(row relation.Row, out *[]relation.Row) {
			if row.Tuple[0].AsInt()%2 == 0 {
				*out = append(*out, row)
			}
		}, func(row relation.Row) {
			got = append(got, row.Tuple[0].AsInt())
		})
		if len(got) != n/2+1 {
			t.Fatalf("rep %d: %d rows, want %d", rep, len(got), n/2+1)
		}
		for i, v := range got {
			if v != int64(2*i) {
				t.Fatalf("rep %d: out-of-order merge at %d: got %d want %d", rep, i, v, 2*i)
			}
		}
	}
}

// TestStreamConcurrent runs streaming queries over shared base relations
// from many goroutines with a forced worker pool — under -race this
// exercises the immutable-tuple sharing, the frozen join index and the
// pooled key buffers for data races.
func TestStreamConcurrent(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	rng := rand.New(rand.NewSource(54))
	l := bigRel(rng, "L", 3*streamChunk)
	r := bigRel(rng, "S", 3*streamChunk)
	join, err := EquiJoin(l, 0, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := join.Eval(5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := EvalStream(join, 5)
				if err != nil {
					errs <- err
					return
				}
				if !got.EqualAt(want, 5) {
					t.Error("concurrent stream diverged from Eval")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSetParallelism: the bound round-trips and n ≤ 0 restores the
// GOMAXPROCS default.
func TestSetParallelism(t *testing.T) {
	orig := Parallelism()
	if prev := SetParallelism(3); prev != orig {
		t.Fatalf("SetParallelism returned %d, want %d", prev, orig)
	}
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism = %d after reset", got)
	}
}
