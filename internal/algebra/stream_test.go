package algebra

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// TestStreamEvalEquivalenceRandom: on random monotonic trees of depth ≤ 3
// the streaming pass agrees with the reference evaluator on rows,
// per-tuple expiration times and texp(e), and, its validity being [τ, ∞),
// equals the reference's recomputation at every later instant (Theorem 1).
func TestStreamEvalEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), true)
		checkAgainstReference(t, fmt.Sprintf("trial %d: %s", trial, e), e, xtime.Time(rng.Intn(10)))
	}
}

// TestStreamEvalEquivalenceNonMonotonic: random trees with aggregation and
// difference anywhere in them agree with the reference evaluator on rows,
// per-tuple expiration times, texp(e) and validity.
func TestStreamEvalEquivalenceNonMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		bases := []*Base{randRel(rng, "R"), randRel(rng, "S"), randRel(rng, "T")}
		e := randExpr(rng, bases, 1+rng.Intn(3), false)
		checkAgainstReference(t, fmt.Sprintf("trial %d: %s", trial, e), e, xtime.Time(rng.Intn(10)))
	}
}

// TestDuplicateFreeDeclarations pins duplicateFree for every operator: a
// leaf, an aggregation and a difference stream a set; σ, ⋈, × and a π that
// keeps every column do when their inputs do, ∩ when its left input does,
// and a GROUP BY when it keeps every grouping column; a π that drops a
// column and ∪ never do.
func TestDuplicateFreeDeclarations(t *testing.T) {
	must := func(e Expr, err error) Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	p, e := pol(), el()
	uid := must(NewProject([]int{0}, p)) // collides: Pol has two rows of Deg 25
	deg := ColConst{Col: 1, Op: OpEq, Const: value.Int(25)}
	agg := must(NewAgg([]int{1}, []AggFunc{countStar()}, PolicyExact, p))
	for _, c := range []struct {
		name string
		e    Expr
		want bool
	}{
		{"base", p, true},
		{"index scan", NewIndexScan(p.(*Base), "pol_deg", deg, nil), true},
		{"agg", agg, true},
		{"diff", must(NewDiff(p, e)), true},
		{"diff of colliding inputs", must(NewDiff(uid, must(NewProject([]int{0}, e)))), true},
		{"σ", must(NewSelect(deg, p)), true},
		{"σ over π dropping a column", must(NewSelect(ColConst{Col: 0, Op: OpEq, Const: value.Int(25)}, must(NewProject([]int{1}, p)))), false},
		{"π keeping every column", must(NewProject([]int{1, 0}, p)), true},
		{"π keeping every column and one twice", must(NewProject([]int{0, 1, 0}, p)), true},
		{"π keeping every column of a ∪", must(NewProject([]int{0, 1}, must(NewUnion(p, e)))), false},
		{"π dropping a column", uid, false},
		{"group by", must(GroupBy([]int{1}, []AggFunc{countStar()}, PolicyExact, p)), true},
		{"group by dropping its grouping column", must(NewProject([]int{2}, agg)), false},
		{"π of an aggregation dropping a column", must(NewProject([]int{0, 2}, agg)), false},
		{"⋈", must(EquiJoin(p, 0, e, 0)), true},
		{"⋈ with a colliding left input", must(EquiJoin(uid, 0, e, 0)), false},
		{"⋈ with a colliding right input", must(EquiJoin(p, 0, uid, 0)), false},
		{"×", NewProduct(p, e), true},
		{"× with a colliding input", NewProduct(p, uid), false},
		{"∩", must(NewIntersect(p, e)), true},
		{"∩ with a colliding right input", must(NewIntersect(p, must(NewUnion(p, e)))), true},
		{"∩ with a colliding left input", must(NewIntersect(must(NewUnion(p, e)), p)), false},
		{"∪", must(NewUnion(p, e)), false},
	} {
		if got := duplicateFree(c.e); got != c.want {
			t.Errorf("%s, %s: duplicateFree %v, want %v", c.name, c.e, got, c.want)
		}
	}
}

// bigRel builds a base relation of n random rows, a tenth of them
// immortal, with its column arrays.
func bigRel(rng *rand.Rand, name string, n int) *Base {
	r := relation.New(tuple.IntCols("a", "b"))
	r.EnableIntArrays()
	for i := 0; i < n; i++ {
		texp := xtime.Time(1 + rng.Intn(50))
		if rng.Intn(10) == 0 {
			texp = xtime.Infinity
		}
		reltest.MustInsertInts(r, texp, int64(rng.Intn(100)), int64(rng.Intn(20)))
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
	want, _ := refEval(join, 5)

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
				// EqualAt probes its second argument: the goroutine's own.
				if !reltest.EqualAt(want, got, 5) {
					t.Error("concurrent stream diverged from the reference")
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

// byteSource makes a fuzz input a rand.Source: each draw takes one byte, so
// that Intn(n) is that byte mod n (masked, for n a power of two), and 0 once
// the input is spent.
type byteSource []byte

func (s *byteSource) Int63() int64 {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int64(b) << 32
}

func (s *byteSource) Seed(int64) {}

// FuzzPassMatchesReference: the input picks two relations of up to five
// rows whose INT columns carry what kernelValue draws — FLOATs, NULLs and
// integers beyond 2⁵³ among them — a tree of depth ≤ 3 over them, and τ; the
// pass must agree with the reference evaluator. R has column arrays until
// its columns take other values.
func FuzzPassMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		rng := rand.New((*byteSource)(&in))
		var bases []*Base
		for _, name := range []string{"R", "S"} {
			r := relation.New(tuple.IntCols("a", "b", "c"))
			r.AttachIndex(name+"_a", index.NewHash([]int{0}))
			if name == "R" {
				r.EnableIntArrays()
			}
			for i := rng.Intn(6); i > 0; i-- {
				texp := xtime.Time(1 + rng.Intn(9))
				if texp == 9 {
					texp = xtime.Infinity
				}
				r.Insert(tuple.T(kernelValue(rng), kernelValue(rng), kernelValue(rng)), texp)
			}
			bases = append(bases, NewBase(name, r))
		}
		e := randExpr(rng, bases, rng.Intn(4), false)
		checkAgainstReference(t, e.String(), e, xtime.Time(rng.Intn(10)))
	})
}
