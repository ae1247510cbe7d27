package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/vfs"
	"expdb/internal/xtime"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindCreateTable, Name: "s", Schema: tuple.IntCols("ID", "V")},
		{Kind: KindInsert, Name: "s", Tuple: tuple.Ints(1, 10), Texp: 42},
		{Kind: KindInsert, Name: "s", Tuple: tuple.Tuple{value.String_("k"), value.Float(1.5), value.Bool(true), value.Null}, Texp: xtime.Infinity},
		{Kind: KindDelete, Name: "s", Key: tuple.Ints(1, 10).Key()},
		{Kind: KindAdvance, Texp: 99},
		{Kind: KindSweep, Texp: 99},
		{Kind: KindCreateView, Name: "v", Def: "CREATE VIEW v AS SELECT * FROM s"},
		{Kind: KindDropView, Name: "v"},
		{Kind: KindDropTable, Name: "s"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		var buf []byte
		buf = appendRecord(buf, &want)
		got, next, err := readRecord(buf, 0)
		if err != nil {
			t.Fatalf("%s: read: %v", want.Kind, err)
		}
		if next != len(buf) {
			t.Fatalf("%s: consumed %d of %d bytes", want.Kind, next, len(buf))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: roundtrip mismatch\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

func TestRecordCorruption(t *testing.T) {
	rec := Record{Kind: KindInsert, Name: "s", Tuple: tuple.Ints(7, 8), Texp: 12}
	var buf []byte
	buf = appendRecord(buf, &rec)

	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := readRecord(buf[:cut], 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", cut, err)
		}
	}
	for i := range buf {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x40
		if _, _, err := readRecord(bad, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

// appendAll appends records to a fresh log in dir and syncs them.
func appendAll(t *testing.T, dir string, recs []Record) *Log {
	t.Helper()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var seq uint64
	for i := range recs {
		if seq, err = l.Append(&recs[i]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Sync(seq); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return l
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	_, rec, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var got []Record
	stats, err := rec.Replay(func(r *Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestLogAppendSyncReplay(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	l := appendAll(t, dir, want)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, stats := replayAll(t, dir)
	if stats.Truncated {
		t.Fatalf("unexpected truncation: %+v", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch\n got %+v\nwant %+v", got, want)
	}
}

func TestLogTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	appendAll(t, dir, want) // no Close: simulated crash

	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-record: the tail record is lost, the prefix survives.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir)
	if !stats.Truncated || stats.TruncatedSegment != 1 {
		t.Fatalf("expected truncation of segment 1, got %+v", stats)
	}
	if len(got) != len(want)-1 || !reflect.DeepEqual(got, want[:len(want)-1]) {
		t.Fatalf("expected %d-record prefix, got %d: %+v", len(want)-1, len(got), got)
	}
	// The cut is physical: a third boot sees a clean log.
	if info, err = os.Stat(seg); err != nil {
		t.Fatal(err)
	}
	if info.Size() != stats.TruncatedAt {
		t.Fatalf("segment not truncated: size %d, want %d", info.Size(), stats.TruncatedAt)
	}
	got2, stats2 := replayAll(t, dir)
	if stats2.Truncated {
		t.Fatalf("second replay still truncated: %+v", stats2)
	}
	if !reflect.DeepEqual(got2, got) {
		t.Fatalf("second replay diverged")
	}
}

func TestLogCRCMismatchStopsReplay(t *testing.T) {
	dir := t.TempDir()
	want := sampleRecords()
	appendAll(t, dir, want)

	// Flip a payload bit in the middle of the segment: everything before
	// the damaged record replays, everything after is discarded.
	seg := filepath.Join(dir, segmentName(1))
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the third record's payload and corrupt it.
	off := 0
	for i := 0; i < 2; i++ {
		_, next, err := readRecord(buf, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	buf[off+frameHeader] ^= 0x01
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats := replayAll(t, dir)
	if !stats.Truncated || stats.TruncatedAt != int64(off) {
		t.Fatalf("expected truncation at %d, got %+v", off, stats)
	}
	if !reflect.DeepEqual(got, want[:2]) {
		t.Fatalf("expected 2-record prefix, got %+v", got)
	}
}

func TestLogRotateAndRemoveBelow(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(&recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(seq); err != nil {
		t.Fatal(err)
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("rotated to gen %d, want 2", gen)
	}
	if seq, err = l.Append(&recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(seq); err != nil {
		t.Fatal(err)
	}

	// Replay sees both segments in order.
	got, _ := replayAll(t, dir)
	if !reflect.DeepEqual(got, recs[:2]) {
		t.Fatalf("cross-segment replay mismatch: %+v", got)
	}

	// A snapshot at gen 2 covers segment 1; RemoveBelow(2) deletes it.
	if err := WriteSnapshotFS(vfs.OS(), filepath.Join(dir, snapshotName(2)), &Snapshot{Clock: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBelow(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 should be gone: %v", err)
	}

	_, rec, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.SnapshotGen != 2 || rec.Snapshot.Clock != 5 {
		t.Fatalf("expected snapshot gen 2 clock 5, got %+v", rec)
	}
	var tail []Record
	if _, err := rec.Replay(func(r *Record) error { tail = append(tail, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, recs[1:2]) {
		t.Fatalf("post-snapshot replay mismatch: %+v", tail)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := Record{Kind: KindInsert, Name: fmt.Sprintf("t%d", w),
					Tuple: tuple.Ints(int64(w), int64(i)), Texp: xtime.Time(i + 1)}
				seq, err := l.Append(&rec)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Sync(seq); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir)
	if stats.Truncated {
		t.Fatalf("unexpected truncation: %+v", stats)
	}
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	// Per-writer order is preserved even though writers interleave.
	next := make(map[string]int64)
	for _, r := range got {
		if r.Tuple[1].AsInt() != next[r.Name] {
			t.Fatalf("writer %s out of order: got %d, want %d", r.Name, r.Tuple[1].AsInt(), next[r.Name])
		}
		next[r.Name]++
	}
}

func TestLogStickyError(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindAdvance, Texp: 1}
	if _, err := l.Append(&rec); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := l.Sync(1); err == nil {
		t.Fatal("sync after close should fail")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &Snapshot{
		Clock:     17,
		LastSweep: 12,
		Tables: []SnapshotTable{
			{Name: "a", Schema: tuple.IntCols("X"), Rows: []SnapshotRow{
				{Tuple: tuple.Ints(1), Texp: 20},
				{Tuple: tuple.Ints(2), Texp: xtime.Infinity},
			}},
			{Name: "empty", Schema: tuple.IntCols("Y", "Z")},
		},
		Views: []SnapshotView{{Name: "v", Def: "CREATE VIEW v AS SELECT * FROM a"}},
	}
	path := filepath.Join(dir, snapshotName(3))
	if err := WriteSnapshotFS(vfs.OS(), path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot mismatch\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotTornWriteIgnored(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{Clock: 9, Tables: []SnapshotTable{
		{Name: "a", Schema: tuple.IntCols("X"), Rows: []SnapshotRow{{Tuple: tuple.Ints(1), Texp: 20}}},
	}}
	path := filepath.Join(dir, snapshotName(2))
	if err := WriteSnapshotFS(vfs.OS(), path, snap); err != nil {
		t.Fatal(err)
	}
	// Chop the footer off: the snapshot must be rejected…
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFS(vfs.OS(), path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn snapshot accepted: %v", err)
	}
	// …and Open must fall back to an older complete generation.
	if err := WriteSnapshotFS(vfs.OS(), filepath.Join(dir, snapshotName(1)), &Snapshot{Clock: 4}); err != nil {
		t.Fatal(err)
	}
	_, rec, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.SnapshotGen != 1 || rec.Snapshot.Clock != 4 {
		t.Fatalf("expected fallback to gen 1, got gen %d %+v", rec.SnapshotGen, rec.Snapshot)
	}
}

func TestLogMetricsAndErr(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	if l.Err() != nil {
		t.Fatalf("fresh log Err = %v, want nil", l.Err())
	}
	rec := Record{Kind: KindAdvance, Texp: 1}
	seq, err := l.Append(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if got := m.Appends.Load(); got != 1 {
		t.Fatalf("appends = %d, want 1", got)
	}
	if m.AppendedBytes.Load() <= 0 {
		t.Fatal("appended bytes not counted")
	}
	if got := m.Syncs.Load(); got != 1 {
		t.Fatalf("syncs = %d, want 1 (rotate flush had nothing pending)", got)
	}
	if m.SyncNanos.Load() <= 0 {
		t.Fatal("sync time not counted")
	}
	if got := m.Rotations.Load(); got != 1 {
		t.Fatalf("rotations = %d, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(l.Err(), ErrClosed) {
		t.Fatalf("closed log Err = %v, want ErrClosed", l.Err())
	}
	var nilLog *Log
	if nilLog.Err() != nil || nilLog.Metrics() != nil {
		t.Fatal("nil log should be inert")
	}
}
