package algebra

import (
	"math"
	"math/rand"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
)

// kernelValues is what an attribute or a constant is drawn from: small
// integers dense enough that every comparison outcome occurs, the integers
// around 2^53 where float64 stops telling neighbours apart, and what
// Schema.Validate admits into an INT column beside INTs — FLOATs (fractional,
// whole, negative zero, 2^53) and NULL — plus the kinds a ranking compares
// across.
var kernelValues = []value.Value{
	value.Int(-1), value.Int(0), value.Int(1), value.Int(2), value.Int(3),
	value.Int(1 << 53), value.Int(1<<53 + 1), value.Int(math.MinInt64), value.Int(math.MaxInt64),
	value.Float(1.5), value.Float(math.Copysign(0, -1)), value.Float(2), value.Float(1 << 53), value.Float(-1e300),
	value.Null, value.Bool(false), value.Bool(true), value.String_(""), value.String_("1"),
}

func kernelValue(rng *rand.Rand) value.Value {
	// Half of all draws are small INTs, so that equalities hold and the
	// typed comparison is what most pairs exercise.
	if rng.Intn(2) == 0 {
		return value.Int(int64(rng.Intn(4)))
	}
	return kernelValues[rng.Intn(len(kernelValues))]
}

const kernelArity = 3

// kernelPred draws a predicate over arity columns.
func kernelPred(rng *rand.Rand, arity, depth int) Predicate {
	kids := func() []Predicate {
		ps := make([]Predicate, rng.Intn(4)) // an empty And is true, an empty Or false
		for i := range ps {
			ps[i] = kernelPred(rng, arity, depth-1)
		}
		return ps
	}
	n := 7
	if depth == 0 {
		n = 4
	}
	switch rng.Intn(n) {
	case 0, 1:
		return ColConst{Col: rng.Intn(arity), Op: CmpOp(rng.Intn(6)), Const: kernelValue(rng)}
	case 2:
		return ColCol{Left: rng.Intn(arity), Right: rng.Intn(arity), Op: CmpOp(rng.Intn(6))}
	case 3:
		return True{}
	case 4:
		return And{Preds: kids()}
	case 5:
		return Or{Preds: kids()}
	default:
		return Not{Pred: kernelPred(rng, arity, depth-1)}
	}
}

// compiled is how every operator applies compile's result: nil means no
// test.
func compiled(p Predicate) func(tuple.Tuple) bool {
	holds := compile(p)
	if holds == nil {
		return func(tuple.Tuple) bool { return true }
	}
	return holds
}

// TestCompileMatchesHolds: Holds is the definition, compile only a faster
// way to the same answer — for every comparison operator, every kind of
// constant, and attributes whose kind is not the one their column declares.
func TestCompileMatchesHolds(t *testing.T) {
	// Comparing the kinds and magnitudes where a typed shortcut would
	// differ from Compare, spelled out so that no seed has to find them:
	// 2^53+1 is above the float 2^53, which float64 cannot tell from it.
	big, bigFloat := value.Int(9007199254740993), value.Float(9007199254740992.0)
	for op := OpEq; op <= OpGe; op++ {
		for _, c := range kernelValues {
			for _, v := range kernelValues {
				p, row := ColConst{Col: 0, Op: op, Const: c}, tuple.T(v)
				if got, want := compiled(p)(row), p.Holds(row); got != want {
					t.Errorf("compile(%s)(%s) = %v, Holds %v", p, row, got, want)
				}
			}
		}
		for _, pair := range []struct {
			c, v value.Value
			cmp  int
		}{{big, bigFloat, -1}, {bigFloat, big, 1}} {
			p, row := ColConst{Col: 0, Op: op, Const: pair.c}, tuple.T(pair.v)
			if got, want := compiled(p)(row), op.Test(pair.cmp); got != want {
				t.Errorf("compile(%s)(%s) = %v, want %v", p, row, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 4000; trial++ {
		p := kernelPred(rng, kernelArity, 3)
		holds := compiled(p)
		for i := 0; i < 8; i++ {
			row := tuple.T(kernelValue(rng), kernelValue(rng), kernelValue(rng))
			if got, want := holds(row), p.Holds(row); got != want {
				t.Fatalf("trial %d: compile(%s)(%s) = %v, Holds %v", trial, p, row, got, want)
			}
		}
	}
}

// FuzzCompileMatchesHolds: the input draws, one byte a decision (byteSource),
// a predicate of depth ≤ 3 — And, Or and Not over ColConst and ColCol, its
// constants and row values from kernelValues: INT, FLOAT, NULL, BOOL and
// STRING, MinInt64 and MaxInt64 among them — then one to eight rows; the
// compiled test must answer Holds on every row. Contradictory INT bounds,
// which compile folds into an empty interval, are one seed.
func FuzzCompileMatchesHolds(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		rng := rand.New((*byteSource)(&in))
		p := kernelPred(rng, kernelArity, 3)
		holds := compiled(p)
		for i := 1 + rng.Intn(8); i > 0; i-- {
			row := tuple.T(kernelValue(rng), kernelValue(rng), kernelValue(rng))
			if got, want := holds(row), p.Holds(row); got != want {
				t.Fatalf("compile(%s)(%s) = %v, Holds %v", p, row, got, want)
			}
		}
	})
}

// TestKernelValuesOrder: over the values a predicate meets, Compare is
// transitive and its equality is Equal and set-key equality — so a hash
// probe finds exactly the rows an equality predicate holds for.
func TestKernelValuesOrder(t *testing.T) {
	for _, a := range kernelValues {
		for _, b := range kernelValues {
			same := string(a.AppendKey(nil)) == string(b.AppendKey(nil))
			if eq := a.Compare(b) == 0; eq != same || a.Equal(b) != same {
				t.Errorf("%v vs %v: Compare = %d, Equal %v, same key %v", a, b, a.Compare(b), a.Equal(b), same)
			}
			for _, c := range kernelValues {
				if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
					t.Errorf("%v ≤ %v ≤ %v, yet %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestCompileNothing: a predicate that is always true compiles to no test at
// all, without allocating — the point-lookup and wire-respond allocation
// budgets count on it.
func TestCompileNothing(t *testing.T) {
	for _, p := range []Predicate{nil, True{}, And{}, And{Preds: []Predicate{True{}, And{}}}} {
		if compile(p) != nil {
			t.Errorf("compile(%v) is a test, want nil", p)
		}
	}
	var residual Predicate
	if n := testing.AllocsPerRun(100, func() {
		if compile(residual) != nil || compile(True{}) != nil {
			t.Fatal("compiled to a test")
		}
	}); n != 0 {
		t.Errorf("compile of an always-true predicate allocates %v times", n)
	}
}
