package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

func mk(a, b int64, texp xtime.Time) Entry {
	t := tuple.Tuple{value.Int(a), value.Int(b)}
	return Entry{Key: t.Key(), Tuple: t, Texp: texp}
}

func TestHashProbeSkipsExpired(t *testing.T) {
	h := NewHash([]int{0})
	h.Insert(mk(1, 10, 5))
	h.Insert(mk(1, 11, 20))
	h.Insert(mk(2, 12, xtime.Infinity))
	probe := tuple.Tuple{value.Int(1)}.Key()
	var got []int64
	h.Probe(probe, 5, func(e Entry) bool {
		got = append(got, e.Tuple[1].AsInt())
		return true
	})
	if len(got) != 1 || got[0] != 11 {
		t.Fatalf("probe at tau=5: want [11], got %v", got)
	}
	// tau=4: both (1,·) rows alive.
	got = nil
	h.Probe(probe, 4, func(e Entry) bool { got = append(got, e.Tuple[1].AsInt()); return true })
	if len(got) != 2 {
		t.Fatalf("probe at tau=4: want 2 rows, got %v", got)
	}
}

func TestHashUpdateRemove(t *testing.T) {
	h := NewHash([]int{0})
	e := mk(7, 1, 10)
	h.Insert(e)
	h.Update(e.Key, e.Tuple, 50)
	probe := e.Tuple.Project([]int{0}).Key()
	var texp xtime.Time
	h.Probe(probe, 10, func(e Entry) bool { texp = e.Texp; return true })
	if texp != 50 {
		t.Fatalf("after update: want texp=50, got %d", texp)
	}
	h.Remove(e.Key, e.Tuple)
	if h.Len() != 0 {
		t.Fatalf("after remove: want empty, got %d", h.Len())
	}
}

// TestHashJoinTableMatchesMaintained: a table built the way a join builds
// its build side (Insert only, no set key) and a secondary index maintained
// through inserts, texp updates and removes, holding the same rows, return
// the same tuples with the same texps for every key — by Lookup with the
// caller's buffer, and by Probe with a key string.
func TestHashJoinTableMatchesMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maintained := NewHash([]int{1})
	live := map[string]Entry{}
	// At most three rows per key: buckets empty and are reused often.
	for step := 0; step < 3000; step++ {
		e := mk(int64(rng.Intn(3)), int64(rng.Intn(30)), xtime.Time(rng.Intn(100)+1))
		old, had := live[e.Key]
		switch op := rng.Intn(10); {
		case op < 6 && !had:
			maintained.Insert(e)
			live[e.Key] = e
		case op < 8 && had:
			old.Texp = e.Texp
			maintained.Update(e.Key, e.Tuple, e.Texp)
			live[e.Key] = old
		case had:
			maintained.Remove(e.Key, e.Tuple)
			delete(live, e.Key)
		}
	}
	join := NewHash([]int{1})
	for _, e := range live {
		join.Insert(Entry{Tuple: e.Tuple, Texp: e.Texp})
	}
	if join.Len() != len(live) || maintained.Len() != len(live) {
		t.Fatalf("Len: join %d, maintained %d, rows %d", join.Len(), maintained.Len(), len(live))
	}
	rows := func(es []Entry) string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%v@%v", e.Tuple, e.Texp)
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	for v := int64(-1); v <= 30; v++ {
		probe := tuple.Tuple{value.Int(0), value.Int(v)} // the key is the probe's column 1
		var c []Entry
		a, b := join.Lookup(probe, []int{1}), maintained.Lookup(probe, []int{1})
		maintained.Probe(probe.Project([]int{1}).Key(), 0, func(e Entry) bool { c = append(c, e); return true })
		if rows(a) != rows(b) || rows(b) != rows(c) {
			t.Fatalf("key %d: join %v, maintained Lookup %v, Probe %v", v, rows(a), rows(b), rows(c))
		}
	}
	// A FLOAT finds the INT it equals; a key never filed finds nothing.
	k := tuple.Ints(3).Key()
	var n int
	maintained.Probe(k, 0, func(Entry) bool { n++; return true })
	if got := join.Lookup(tuple.T(value.Float(3)), []int{0}); len(got) != n {
		t.Errorf("Lookup(3.0) = %d entries, want %d", len(got), n)
	}
	if got := join.Lookup(tuple.Ints(1000), []int{0}); got != nil {
		t.Errorf("Lookup(1000) = %v, want nothing", got)
	}
	// A lookup encodes its key on the stack: it allocates nothing.
	probe := tuple.Ints(3)
	if allocs := testing.AllocsPerRun(100, func() { join.Lookup(probe, []int{0}) }); allocs != 0 {
		t.Errorf("Lookup allocates %v times per call", allocs)
	}
}

// TestHashConcurrentLookups: lookups run under a table's read lock, so two
// goroutines probe one table at once; under -race neither writes what the
// other reads.
func TestHashConcurrentLookups(t *testing.T) {
	h := NewHash([]int{0})
	for a := int64(0); a < 50; a++ {
		for b := int64(0); b <= a%4; b++ {
			h.Insert(mk(a, b, xtime.Infinity))
		}
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 2; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := (int64(i)*2 + g) % 50
				got := h.Lookup(tuple.Ints(a), []int{0})
				if len(got) != int(a%4)+1 || got[0].Tuple[0].AsInt() != a {
					t.Errorf("goroutine %d: Lookup(%d) = %v", g, a, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOrderedAgainstOracle drives a random workload of inserts, texp
// updates and removes through the B+tree and a sorted-slice oracle, and
// checks every range scan agrees.
func TestOrderedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	o := NewOrdered([]int{0})
	oracle := map[string]Entry{}
	for step := 0; step < 5000; step++ {
		a := int64(rng.Intn(200))
		b := int64(rng.Intn(5))
		e := mk(a, b, xtime.Time(rng.Intn(100)+1))
		switch op := rng.Intn(10); {
		case op < 6: // insert (fresh identity only, like the relation does)
			if _, dup := oracle[e.Key]; !dup {
				o.Insert(e)
				oracle[e.Key] = e
			}
		case op < 8: // texp update of an existing entry
			if old, ok := oracle[e.Key]; ok {
				old.Texp = e.Texp
				oracle[e.Key] = old
				o.Update(e.Key, e.Tuple, e.Texp)
			}
		default: // remove
			if _, ok := oracle[e.Key]; ok {
				delete(oracle, e.Key)
				o.Remove(e.Key, e.Tuple)
			}
		}
	}
	if o.Len() != len(oracle) {
		t.Fatalf("size mismatch: tree %d, oracle %d", o.Len(), len(oracle))
	}
	cmp := func(x, y Entry) bool {
		if d := x.Tuple[0].Compare(y.Tuple[0]); d != 0 {
			return d < 0
		}
		return x.Key < y.Key
	}
	for trial := 0; trial < 200; trial++ {
		tau := xtime.Time(rng.Intn(110))
		loV, hiV := int64(rng.Intn(220)-10), int64(rng.Intn(220)-10)
		var lo, hi []value.Value
		loInc, hiInc := rng.Intn(2) == 0, rng.Intn(2) == 0
		if rng.Intn(4) > 0 {
			lo = []value.Value{value.Int(loV)}
		}
		if rng.Intn(4) > 0 {
			hi = []value.Value{value.Int(hiV)}
		}
		var want []Entry
		for _, e := range oracle {
			if e.Texp <= tau {
				continue
			}
			if lo != nil {
				c := e.Tuple[0].Compare(lo[0])
				if c < 0 || (c == 0 && !loInc) {
					continue
				}
			}
			if hi != nil {
				c := e.Tuple[0].Compare(hi[0])
				if c > 0 || (c == 0 && !hiInc) {
					continue
				}
			}
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool { return cmp(want[i], want[j]) })
		var got []Entry
		o.Ascend(lo, loInc, hi, hiInc, tau, func(e Entry) bool {
			got = append(got, e)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: scan [%v,%v] tau=%d: tree %d rows, oracle %d", trial, lo, hi, tau, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Texp != want[i].Texp {
				t.Fatalf("trial %d row %d: tree %+v, oracle %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestOrderedEarlyStop(t *testing.T) {
	o := NewOrdered([]int{0})
	for i := int64(0); i < 300; i++ {
		o.Insert(mk(i, 0, xtime.Infinity))
	}
	seen := 0
	o.Ascend(nil, true, nil, true, 0, func(Entry) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop: want 10 emissions, got %d", seen)
	}
}

// TestOrderedBoundedUnderSlidingWindow: an index over an increasing column
// of an expiring table — each key removed 100 inserts after it went in —
// stays the size of its 100 live entries, however many leaves splits left
// behind, and a full scan walks only those.
func TestOrderedBoundedUnderSlidingWindow(t *testing.T) {
	o := NewOrdered([]int{0})
	for i := int64(0); i < 200_000; i++ {
		o.Insert(mk(i, 0, xtime.Infinity))
		if i >= 100 {
			gone := mk(i-100, 0, xtime.Infinity)
			o.Remove(gone.Key, gone.Tuple)
		}
	}
	leaves, n := 0, o.root
	for !n.leaf {
		n = n.kids[0]
	}
	for ; n != nil; n = n.next {
		leaves++
	}
	seen := 0
	o.Ascend(nil, true, nil, true, 0, func(Entry) bool { seen++; return true })
	if leaves >= 64 || seen != 100 || o.Len() != 100 {
		t.Fatalf("%d leaves for %d entries (%d scanned), want fewer than 64 for 100", leaves, o.Len(), seen)
	}
}

func TestTexpHeap(t *testing.T) {
	live := map[string]xtime.Time{}
	current := func(k string) (xtime.Time, bool) { v, ok := live[k]; return v, ok }
	th := NewTexpHeap()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		texp := xtime.Time(100 - i)
		live[k] = texp
		th.Push(k, texp)
	}
	th.Push("never", xtime.Infinity)
	if th.Len() != 100 {
		t.Fatalf("infinity must not be retained: len=%d", th.Len())
	}
	if th.Due(0) || !th.Due(1) {
		t.Fatalf("Due(0)=%v Due(1)=%v, want false/true", th.Due(0), th.Due(1))
	}
	// Extend k099 (texp 1 -> 500): the heap pair goes stale.
	live["k099"] = 500
	th.Push("k099", 500)
	// Delete k098 (texp 2): stale too.
	delete(live, "k098")
	var fired []xtime.Time
	n := th.PopDue(50, current, func(k string, texp xtime.Time) {
		delete(live, k)
		fired = append(fired, texp)
	})
	// texp 3..50 inclusive = 48 rows: the two stale pairs deliver nothing.
	if n != 48 || len(fired) != 48 || fired[0] != 3 {
		t.Fatalf("PopDue(50): want 48 expirations from texp 3, got %d from %v", n, fired[0])
	}
	for i := 1; i < len(fired); i++ {
		if fired[i-1] > fired[i] {
			t.Fatalf("PopDue must fire in texp order: %v", fired)
		}
	}
	if th.Due(50) || !th.Due(51) || th.Len() != 51 {
		t.Fatalf("after PopDue(50): Due(50)=%v Due(51)=%v Len=%d, want false/true/51", th.Due(50), th.Due(51), th.Len())
	}
}

// TestTexpHeapPopOrderIgnoresHistory: pairs pop in (texp, key) order
// whatever order they were pushed in, and Due is an exact "nothing to
// pop" test.
func TestTexpHeapPopOrderIgnoresHistory(t *testing.T) {
	live := map[string]xtime.Time{}
	current := func(k string) (xtime.Time, bool) { v, ok := live[k]; return v, ok }
	var want []string
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		live[k] = xtime.Time(10 + i/50) // four texp values, 50-way ties
		want = append(want, k)
	}
	for _, seed := range []int64{1, 2, 3} {
		th := NewTexpHeap()
		if th.Due(1 << 40) {
			t.Fatal("empty heap reports something due")
		}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(want)) {
			th.Push(want[i], live[want[i]])
		}
		if th.Due(9) || !th.Due(10) {
			t.Fatalf("Due(9)=%v Due(10)=%v, want false/true", th.Due(9), th.Due(10))
		}
		var got []string
		th.PopDue(13, current, func(k string, _ xtime.Time) { got = append(got, k) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: pop order depends on push order:\n%v", seed, got)
		}
	}
}

func TestOrderedCompositeTiebreak(t *testing.T) {
	o := NewOrdered([]int{0, 1})
	o.Insert(mk(1, 2, xtime.Infinity))
	o.Insert(mk(1, 1, xtime.Infinity))
	o.Insert(mk(0, 9, xtime.Infinity))
	var got [][2]int64
	o.Ascend(nil, true, nil, true, 0, func(e Entry) bool {
		got = append(got, [2]int64{e.Tuple[0].AsInt(), e.Tuple[1].AsInt()})
		return true
	})
	want := [][2]int64{{0, 9}, {1, 1}, {1, 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("composite order: want %v, got %v", want, got)
	}
	// Prefix bound on the first column only.
	got = nil
	o.Ascend([]value.Value{value.Int(1)}, true, []value.Value{value.Int(1)}, true, 0, func(e Entry) bool {
		got = append(got, [2]int64{e.Tuple[0].AsInt(), e.Tuple[1].AsInt()})
		return true
	})
	want = [][2]int64{{1, 1}, {1, 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("prefix bound: want %v, got %v", want, got)
	}
}
