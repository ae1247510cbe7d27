package algebra

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
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

// kernelInt draws what kernelValue does, INTs only: the values an INT column
// that keeps its array holds.
func kernelInt(rng *rand.Rand) int64 {
	for {
		v := kernelValue(rng)
		if i, ok := v.Int64(); ok {
			return i
		}
	}
}

// checkScan draws a base table ⟨a, b, c⟩ with its column arrays and a
// history over it — inserts, lifetime extensions, and deletes whose holes
// later inserts fill — in which each column either holds INTs only or, for
// a mask the rng picks, takes kernelValue's other kinds too and drops its
// array. Then it draws a predicate, τ and, over a column with an array, a
// key set. Base.scan, without and with the key set, must stream exactly the
// rows of AliveAt that Holds selects (and whose key is in the set), each
// once.
func checkScan(t *testing.T, rng *rand.Rand) {
	rel := relation.New(tuple.IntCols("a", "b", "c"))
	rel.EnableIntArrays()
	mixed := rng.Intn(8) // bit c: column c draws any kind
	draw := func(c int) value.Value {
		if mixed>>c&1 == 1 {
			return kernelValue(rng)
		}
		return value.Int(kernelInt(rng))
	}
	var stored []tuple.Tuple
	for i := rng.Intn(32); i > 0; i-- {
		texp := xtime.Time(1 + rng.Intn(9))
		switch op := rng.Intn(4); {
		case op == 0 && len(stored) > 0:
			k := rng.Intn(len(stored))
			rel.DeleteKey(stored[k].Key())
			stored = slices.Delete(stored, k, k+1)
		case op == 1 && len(stored) > 0:
			rel.Insert(stored[rng.Intn(len(stored))], texp+5) // extends, or not
		default:
			tp := tuple.T(draw(0), draw(1), draw(2))
			rel.Insert(tp, texp)
			stored = append(stored, tp)
		}
	}
	p := kernelPred(rng, kernelArity, 3)
	tau := xtime.Time(rng.Intn(10))
	var keys []int64
	keyCol := rng.Intn(kernelArity)
	if rel.HasIntArray(keyCol) {
		keys = make([]int64, rng.Intn(5))
		for i := range keys {
			keys[i] = kernelInt(rng)
		}
		// The edges of IntSet's dense rule: the first key moved below the
		// others so that the span is one bit short of 64 a key + 4 096, at
		// it, or one past it.
		if e := int64(rng.Intn(4)); e > 0 && len(keys) > 1 {
			keys[0] = slices.Max(keys[1:]) - (64*int64(len(keys)) + 4096 - 3 + e)
		}
	}
	base := NewBase("R", rel)
	for _, withKeys := range []bool{false, true} {
		if withKeys && keys == nil {
			continue
		}
		var in *relation.IntSet
		want := map[string]xtime.Time{}
		rel.AliveAt(tau, func(row relation.Row) {
			if !p.Holds(row.Tuple) {
				return
			}
			if v, _ := row.Tuple[keyCol].Int64(); !withKeys || slices.Contains(keys, v) {
				want[row.Tuple.Key()] = row.Texp
			}
		})
		if withKeys {
			in = relation.NewIntSet(keyCol, slices.Clone(keys))
		}
		got := map[string]xtime.Time{}
		base.scan(tau, p, in, func(row relation.Row) {
			k := row.Tuple.Key()
			if _, dup := got[k]; dup {
				t.Fatalf("scan of σ[%s] at %v (keys %v in column %d) streams %v twice", p, tau, keys, keyCol, row.Tuple)
			}
			got[k] = row.Texp
		})
		if !maps.Equal(got, want) {
			t.Fatalf("scan of σ[%s] at %v (keys %v in column %d, arrays %v %v %v): %d rows, want %d\n%s",
				p, tau, keys, keyCol, rel.HasIntArray(0), rel.HasIntArray(1), rel.HasIntArray(2), len(got), len(want), rel.Render(tau))
		}
	}
}

// TestScanMatchesHolds is FuzzScanMatchesHolds over seeded draws.
func TestScanMatchesHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 3000; trial++ {
		checkScan(t, rng)
	}
}

// FuzzScanMatchesHolds: the input draws checkScan's table, history,
// predicate, τ and key set one byte a decision (byteSource). The named
// seeds in testdata/fuzz/FuzzScanMatchesHolds are the edges of IntSet:
// an empty key set, one key, duplicates, MinInt64, MaxInt64 and both, and
// spans one bit below, at and one past the dense limit, each over a table
// with a row at the set's largest key.
func FuzzScanMatchesHolds(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkScan(t, rand.New((*byteSource)(&in)))
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
