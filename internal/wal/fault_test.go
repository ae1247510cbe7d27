package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"expdb/internal/tuple"
	"expdb/internal/vfs"
)

// WAL-level fault tests (run with -run DiskFault): the log and snapshot
// layer against the injectable VFS, plus the bit-flip fuzz over whole
// snapshot files. The engine-level counterparts live in
// internal/engine/diskfault_test.go.

func fuzzSnapshot() *Snapshot {
	return &Snapshot{
		Clock:     17,
		LastSweep: 12,
		Tables: []SnapshotTable{
			{Name: "a", Schema: tuple.IntCols("X"), Rows: []SnapshotRow{
				{Tuple: tuple.Ints(1), Texp: 20},
				{Tuple: tuple.Ints(2), Texp: 35},
			}},
			{Name: "b", Schema: tuple.IntCols("Y", "Z"), Rows: []SnapshotRow{
				{Tuple: tuple.Ints(3, 4), Texp: 50},
			}},
		},
		Views: []SnapshotView{{Name: "v", Def: "CREATE VIEW v AS SELECT * FROM a"}},
	}
}

// TestDiskFaultSnapshotBitFlipFuzz flips every bit of a snapshot file,
// one at a time, and requires ReadSnapshot to reject each damaged image
// as corrupt — or, if some flip were undetectable, to still return
// exactly the original contents. Under no flip may it return different
// rows without an error: recovery trusts the snapshot completely.
func TestDiskFaultSnapshotBitFlipFuzz(t *testing.T) {
	dir := t.TempDir()
	want := fuzzSnapshot()
	path := filepath.Join(dir, snapshotName(1))
	if err := WriteSnapshotFS(vfs.OS(), path, want); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(dir, "mutated.snap")
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), orig...)
			bad[i] ^= 1 << bit
			if err := os.WriteFile(mut, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSnapshotFS(vfs.OS(), mut)
			if err == nil {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("flip byte %d bit %d: accepted with DIFFERENT contents\n got %+v\nwant %+v",
						i, bit, got, want)
				}
				continue
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", i, bit, err)
			}
		}
	}
}

// TestDiskFaultSnapshotBitFlipFallback: a bit-flipped newest snapshot
// must push Open back to the previous complete generation, not serve
// the damaged rows.
func TestDiskFaultSnapshotBitFlipFallback(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshotFS(vfs.OS(), filepath.Join(dir, snapshotName(1)), &Snapshot{Clock: 4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(2))
	if err := WriteSnapshotFS(vfs.OS(), path, fuzzSnapshot()); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
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

// TestDiskFaultSnapshotReadEIO: a read failure is NOT corruption — the
// snapshot on disk may be perfectly good, so the I/O error must surface
// instead of a silent fallback to older state.
func TestDiskFaultSnapshotReadEIO(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotName(1))
	if err := WriteSnapshotFS(vfs.OS(), path, fuzzSnapshot()); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFault(vfs.OS())
	ffs.FailReads(0, -1, nil)
	_, err := ReadSnapshotFS(ffs, path)
	if err == nil || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("EIO read: err = %v, want injected fault", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("EIO read misclassified as corruption: %v", err)
	}
	// And Open must refuse to recover, not fall back.
	if _, _, err := OpenFS(dir, ffs); err == nil || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Open with unreadable snapshot: err = %v, want injected fault", err)
	}
}

// TestDiskFaultStaleSnapTmpRemoved: a crash mid-checkpoint leaves a
// *.snap.tmp behind; the next Open must delete it so it can never be
// mistaken for (or block) a future snapshot publish.
func TestDiskFaultStaleSnapTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, snapshotName(7)+".tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale snapshot temp file survived Open: stat err = %v", err)
	}
}

// TestDiskFaultSyncErrorPoisonsThenReopen: a failed fsync poisons the
// log (sticky error, nothing more reaches disk); Reopen on the healed
// filesystem starts a fresh generation. The record whose fsync failed
// is indeterminate — it may or may not have survived — but replay must
// yield the acknowledged prefix, optionally that one whole record, and
// the post-reopen records; never a torn or reordered image.
func TestDiskFaultSyncErrorPoisonsThenReopen(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	l, _, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	durable := recs[:3]
	var seq uint64
	for i := range durable {
		if seq, err = l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(seq); err != nil {
		t.Fatal(err)
	}

	ffs.FailSyncs(0, -1, nil)
	if seq, err = l.Append(&recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(seq); err == nil || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("sync under fault: err = %v, want injected", err)
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after failed sync")
	}
	if _, err := l.Append(&recs[4]); err == nil {
		t.Fatal("append on poisoned log accepted")
	}

	ffs.Heal()
	l2, err := Reopen(dir, ffs)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if seq, err = l2.Append(&recs[4]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, _ := replayAll(t, dir)
	lost := append(append([]Record(nil), durable...), recs[4])
	kept := append(append([]Record(nil), recs[:4]...), recs[4])
	if !reflect.DeepEqual(got, lost) && !reflect.DeepEqual(got, kept) {
		t.Fatalf("replay after reopen\n got %+v\nwant %+v\n  or %+v", got, lost, kept)
	}
}

// TestDiskFaultQuotaENOSPC: a full disk surfaces at Sync as an error
// carrying both the injection marker and the real errno.
func TestDiskFaultQuotaENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	l, _, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ffs.SetQuota(ffs.Used() + 2)
	recs := sampleRecords()
	seq, err := l.Append(&recs[1])
	if err != nil {
		t.Fatal(err)
	}
	err = l.Sync(seq)
	if err == nil || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("sync over quota: err = %v, want ENOSPC injection", err)
	}
}

// TestDiskFaultReserveLifecycle: OpenFS pre-allocates the emergency
// headroom file; segment housekeeping never touches it; Release frees
// it and Ensure restores it.
func TestDiskFaultReserveLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenFS(dir, vfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reserve := filepath.Join(dir, "wal.reserve")
	info, err := os.Stat(reserve)
	if err != nil {
		t.Fatalf("reserve not created by Open: %v", err)
	}
	if info.Size() < ReserveBytes {
		t.Fatalf("reserve size = %d, want >= %d", info.Size(), ReserveBytes)
	}

	// Rotations and RemoveBelow must ignore the reserve file.
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBelow(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(reserve); err != nil {
		t.Fatalf("reserve lost to RemoveBelow: %v", err)
	}

	l.ReleaseReserve()
	if _, err := os.Stat(reserve); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("reserve still present after release: stat err = %v", err)
	}
	l.EnsureReserve()
	if info, err = os.Stat(reserve); err != nil || info.Size() < ReserveBytes {
		t.Fatalf("reserve not restored: %v (size %d)", err, info.Size())
	}
}
