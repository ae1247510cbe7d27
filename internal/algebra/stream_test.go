package algebra

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
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

// bigRel builds a base relation of n random rows, a tenth of them
// immortal.
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

// TestStreamConcurrent streams one join plan over shared base relations
// from many goroutines. Under -race this is what proves that the tuples are
// shared read-only and that the hash index and the probe-key buffer belong
// to one Stream call, not to the plan node.
func TestStreamConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	l := bigRel(rng, "L", 768)
	r := bigRel(rng, "S", 768)
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
