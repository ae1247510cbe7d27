package pqueue

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"expdb/internal/xtime"
)

func TestPushPopOrdered(t *testing.T) {
	q := New[string](4)
	q.Push(5, "e")
	q.Push(1, "a")
	q.Push(3, "c")
	q.Push(2, "b")
	var got []string
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.Value)
	}
	want := []string{"a", "b", "c", "e"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestPeekAndNextAt(t *testing.T) {
	q := New[int](0)
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty must report !ok")
	}
	if q.NextAt() != xtime.Infinity {
		t.Error("NextAt on empty must be Infinity")
	}
	q.Push(7, 70)
	it, ok := q.Peek()
	if !ok || it.At != 7 || it.Value != 70 {
		t.Errorf("Peek = %+v, %v", it, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek must not remove")
	}
}

func TestPopDue(t *testing.T) {
	q := New[int](0)
	for i := 1; i <= 10; i++ {
		q.Push(xtime.Time(i), i)
	}
	due := q.PopDue(4)
	if len(due) != 4 {
		t.Fatalf("PopDue(4) = %d items, want 4", len(due))
	}
	for i, it := range due {
		if it.At != xtime.Time(i+1) {
			t.Errorf("due[%d].At = %v, want %d", i, it.At, i+1)
		}
	}
	if q.Len() != 6 {
		t.Errorf("remaining = %d, want 6", q.Len())
	}
	if len(q.PopDue(4)) != 0 {
		t.Error("second PopDue(4) must be empty")
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue[int]
	if _, ok := q.Pop(); ok {
		t.Error("Pop on zero-value queue must report !ok")
	}
}

func TestQuickHeapOrder(t *testing.T) {
	f := func(prios []uint16) bool {
		q := New[int](len(prios))
		for i, p := range prios {
			q.Push(xtime.Time(p), i)
		}
		want := make([]xtime.Time, len(prios))
		for i, p := range prios {
			want[i] = xtime.Time(p)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			it, ok := q.Pop()
			if !ok || it.At != w {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPopDuePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		q := New[int](0)
		n := rng.Intn(100)
		for i := 0; i < n; i++ {
			q.Push(xtime.Time(rng.Intn(50)), i)
		}
		tau := xtime.Time(rng.Intn(50))
		due := q.PopDue(tau)
		for _, it := range due {
			if it.At > tau {
				t.Fatalf("due item at %v > tau %v", it.At, tau)
			}
		}
		if q.NextAt() <= tau && q.Len() > 0 {
			t.Fatalf("left item due at %v ≤ tau %v in queue", q.NextAt(), tau)
		}
	}
}

// TestDrainedQueueReleasesWhatItHeld: a queue that held 10 000 tuples lets go
// of each as it is popped (Pop used to leave them in the slots it vacated),
// and once drained of the array they sat in too.
func TestDrainedQueueReleasesWhatItHeld(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const n = 10000
	base := heap()
	q := New[[]int64](0)
	for i := 0; i < n; i++ {
		q.Push(xtime.Time(1+i%100), make([]int64, 32))
	}
	peak := heap() - base
	// 60 % popped, the array still more than a quarter full: what goes is the
	// tuples, 5/6 of the peak.
	if got := len(q.PopDue(60)); got != n*6/10 {
		t.Fatalf("PopDue(60) popped %d of %d", got, n)
	}
	if kept := heap() - base; kept > peak*6/10 {
		t.Fatalf("with 60 %% popped the queue retains %d bytes of a %d-byte peak", kept, peak)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if kept := heap() - base; kept > peak/20 {
		t.Fatalf("a drained queue retains %d bytes of a %d-byte peak", kept, peak)
	}
	// A short queue keeps its array: a push and a pop allocate what
	// container/heap's two interface values cost, and no array.
	if allocs := testing.AllocsPerRun(100, func() { q.Push(1, nil); q.Pop() }); allocs > 2 {
		t.Fatalf("push and pop on a short queue allocate %v times", allocs)
	}
}
