package monitor

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestHistoryCounterDeltas(t *testing.T) {
	h := NewHistory(8)
	var src atomic.Int64
	src.Store(100) // pre-existing total must not appear as a delta
	if err := h.Register("writes", SeriesCounter, src.Load); err != nil {
		t.Fatal(err)
	}
	src.Add(7)
	h.Sample()
	src.Add(3)
	h.Sample()
	h.Sample()   // no movement
	src.Store(4) // the counter restarted: one empty interval, not -106
	h.Sample()
	src.Add(5)
	h.Sample()

	snap := h.Snapshot("writes", 0)
	if len(snap.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(snap.Series))
	}
	var got []int64
	for _, p := range snap.Series[0].Points {
		got = append(got, p.Value)
	}
	if want := []int64{7, 3, 0, 0, 5}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deltas = %v, want %v", got, want)
	}
}

func TestHistoryGaugeLevels(t *testing.T) {
	h := NewHistory(4)
	var depth atomic.Int64
	if err := h.Register("depth", SeriesGauge, depth.Load); err != nil {
		t.Fatal(err)
	}
	depth.Store(5)
	h.Sample()
	depth.Store(2)
	h.Sample()
	pts := h.Snapshot("depth", 0).Series[0].Points
	if pts[0].Value != 5 || pts[1].Value != 2 {
		t.Fatalf("gauge points = %+v, want 5 then 2", pts)
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	h := NewHistory(3)
	var src atomic.Int64
	if err := h.Register("c", SeriesCounter, src.Load); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		src.Add(i) // deltas 1..5
		h.Sample()
	}
	if h.Samples() != 5 {
		t.Fatalf("samples = %d, want 5", h.Samples())
	}
	pts := h.Snapshot("c", 0).Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("retained = %d, want capacity 3", len(pts))
	}
	for i, want := range []int64{3, 4, 5} { // oldest-first window
		if pts[i].Value != want {
			t.Fatalf("points = %+v, want deltas 3,4,5", pts)
		}
	}
}

func TestHistorySnapshotLimitAndFilter(t *testing.T) {
	h := NewHistory(8)
	var a, b atomic.Int64
	if err := h.Register("a", SeriesGauge, a.Load); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("b", SeriesGauge, b.Load); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		a.Store(i)
		h.Sample()
	}
	snap := h.Snapshot("", 2)
	if len(snap.Series) != 2 {
		t.Fatalf("unfiltered series = %d, want 2", len(snap.Series))
	}
	if n := len(snap.Series[0].Points); n != 2 {
		t.Fatalf("limited points = %d, want 2", n)
	}
	if v := snap.Series[0].Points[1].Value; v != 5 {
		t.Fatalf("last limited point = %d, want most recent 5", v)
	}
	if got := h.Snapshot("nope", 0).Series; len(got) != 0 {
		t.Fatalf("unknown metric yields %d series, want 0", len(got))
	}
	names := h.SeriesNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestHistoryDuplicateRegister(t *testing.T) {
	h := NewHistory(2)
	var src atomic.Int64
	if err := h.Register("x", SeriesCounter, src.Load); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("x", SeriesGauge, src.Load); err == nil {
		t.Fatal("duplicate Register succeeded, want error")
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Sample()
	if err := h.Register("x", SeriesGauge, func() int64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if h.Samples() != 0 || len(h.Snapshot("", 0).Series) != 0 || h.SeriesNames() != nil {
		t.Fatal("nil History should be inert")
	}
}

// TestHistorySampleNoAllocs pins the sampler hot path: one tick over
// many registered series performs zero allocations. CI gates the same
// property through BenchmarkSamplerTick.
func TestHistorySampleNoAllocs(t *testing.T) {
	h := NewHistory(64)
	var srcs [16]atomic.Int64
	for i := range srcs {
		kind := SeriesCounter
		if i%2 == 1 {
			kind = SeriesGauge
		}
		if err := h.Register(string(rune('a'+i)), kind, srcs[i].Load); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		for i := range srcs {
			srcs[i].Add(int64(i))
		}
		h.Sample()
	})
	if n != 0 {
		t.Fatalf("Sample allocates %v times per run, want 0", n)
	}
}
