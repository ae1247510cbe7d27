package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNextIDUnique(t *testing.T) {
	a, b := NextID(), NextID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids not fresh: %v %v", a, b)
	}
}

// ringType runs one element type through a Ring: mk makes the i-th value
// (1-based), id reads i back, and seq reads the number the ring stamped
// into it (nil for a type the ring does not number).
type ringType[T any] struct {
	ring func(capacity int) *Ring[T]
	mk   func(i int) T
	id   func(T) int
	seq  func(T) uint64
}

// check emits n values into a ring of the given capacity and verifies
// Total, Dropped, Capacity, a high-water of min(Total, Capacity), and
// Snapshot's order, limit and Seq.
func (rt ringType[T]) check(t *testing.T, capacity, n int) {
	r := rt.ring(capacity)
	for i := 1; i <= n; i++ {
		r.Emit(rt.mk(i))
	}
	held := min(n, capacity)
	want := RingStats{Total: uint64(n), Dropped: uint64(n - held), Capacity: capacity, HighWater: uint64(held)}
	if got := r.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	for _, limit := range []int{0, 1, 2, capacity + 1} {
		got, keep := r.Snapshot(limit), held
		if limit > 0 {
			keep = min(limit, held)
		}
		if len(got) != keep {
			t.Fatalf("Snapshot(%d) kept %d values, want %d", limit, len(got), keep)
		}
		for j, v := range got {
			i := n - keep + 1 + j // oldest first, the oldest dropped first
			if rt.id(v) != i || rt.seq != nil && rt.seq(v) != uint64(i) {
				t.Fatalf("Snapshot(%d)[%d] = %+v, want value and seq %d", limit, j, v, i)
			}
		}
	}
}

// checkEmitAllocs pins Emit into a wrapped-around ring at zero allocations.
func (rt ringType[T]) checkEmitAllocs(t *testing.T) {
	r := rt.ring(16)
	for i := 1; i <= 20; i++ {
		r.Emit(rt.mk(i))
	}
	v := rt.mk(21)
	if allocs := testing.AllocsPerRun(100, func() { r.Emit(v) }); allocs != 0 {
		t.Fatalf("Emit allocates %.1f objects/op, want 0", allocs)
	}
}

// The lifecycle-event log and the slow-query log are two instances of one
// ring.
var (
	eventRing = ringType[Event]{
		ring: NewLog,
		mk:   func(i int) Event { return Event{Trace: 7, Kind: EvExpiry, Name: "hist", Count: int64(i)} },
		id:   func(e Event) int { return int(e.Count) },
		seq:  func(e Event) uint64 { return e.Seq },
	}
	traceRing = ringType[Trace]{
		ring: func(capacity int) *Ring[Trace] { return NewRing[Trace](capacity, nil) },
		mk:   func(i int) Trace { return Trace{ID: ID(i), Stmt: "q", Root: Begin("s")} },
		id:   func(tr Trace) int { return int(tr.ID) },
	}
)

type ringCase struct{ capacity, n int }

func (c ringCase) String() string { return fmt.Sprintf("capacity=%d/n=%d", c.capacity, c.n) }

// Below capacity the event log keeps every event in emission order,
// numbers them from 1, honours a Snapshot limit and drops nothing.
func TestLogSnapshotOrderAndLimit(t *testing.T) {
	for _, c := range []ringCase{{8, 0}, {8, 5}, {4, 4}} {
		t.Run(c.String(), func(t *testing.T) { eventRing.check(t, c.capacity, c.n) })
	}
}

// Wraparound drops the oldest events and the counter records every loss.
func TestLogWraparoundDropsOldest(t *testing.T) {
	for _, c := range []ringCase{{4, 10}, {2, 3}, {1, 3}} {
		t.Run(c.String(), func(t *testing.T) { eventRing.check(t, c.capacity, c.n) })
	}
}

// The slow-query log of Traces fills, wraps and limits like the event log.
func TestStoreWraparound(t *testing.T) {
	for _, c := range []ringCase{{8, 0}, {8, 5}, {4, 4}, {4, 10}, {2, 3}, {1, 3}} {
		t.Run(c.String(), func(t *testing.T) { traceRing.check(t, c.capacity, c.n) })
	}
}

// Emitting into a ring must be allocation-free: the ring is preallocated
// and values are copied in. This is the property that lets the engine emit
// from its hot paths unconditionally.
func TestEmitAllocationFree(t *testing.T) {
	t.Run("events", eventRing.checkEmitAllocs)
	t.Run("traces", traceRing.checkEmitAllocs)
}

func TestNilLogAndSpanSafe(t *testing.T) {
	var l *Ring[Event]
	l.Emit(Event{}) // must not panic
	if l.Snapshot(0) != nil || l.Stats() != (RingStats{}) {
		t.Fatal("nil log not inert")
	}
	var s *Span
	s.End()
	s.Set("k", "v")
	if s.Child("x") != nil {
		t.Fatal("nil span spawned a child")
	}
	if s.String() != "" {
		t.Fatal("nil span rendered output")
	}
}

func TestSpanTreeRender(t *testing.T) {
	root := Begin("select")
	p := root.Child("plan")
	p.Set("view", "hist")
	p.End()
	c := root.Child("execute")
	c.End()
	root.End()
	if root.Dur <= 0 || len(root.Children) != 2 {
		t.Fatalf("root not finished: %+v", root)
	}
	out := root.String()
	for _, want := range []string{"select", "├─ plan", "view=hist", "└─ execute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := Begin("x")
	s.End()
	d := s.Dur
	time.Sleep(time.Millisecond)
	s.End()
	if s.Dur != d {
		t.Fatal("second End overwrote duration")
	}
}

func TestEventJSONKindName(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, Kind: EvViewRecompute, Name: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"view-recompute"`) {
		t.Fatalf("kind not marshalled by name: %s", b)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Trace: 255, Kind: EvExpiry, Name: "pol", Tick: 10, Texp: 10, Count: 2}
	s := e.String()
	for _, want := range []string{"#3", "t=10", "trace=000000ff", "expiry", "pol", "count=2", "texp=10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string missing %q: %s", want, s)
		}
	}
}
