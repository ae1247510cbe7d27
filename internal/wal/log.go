package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"expdb/internal/metrics"
	"expdb/internal/vfs"
)

// createFlags opens a brand-new segment: O_EXCL because generations are
// never reused, so an existing file means a bookkeeping bug.
const createFlags = os.O_CREATE | os.O_EXCL | os.O_WRONLY

// ErrClosed is the sticky error of a cleanly closed log, distinct from a
// poisoning I/O failure so health checks can tell shutdown from damage.
var ErrClosed = errors.New("wal: log closed")

// Metrics counts the log's work since Open: append and flush volume,
// fsync count and latency, and segment rotations. All fields are atomic
// and safe to read while the log is in use; the monitor's history
// sampler reads them lock-free every tick.
type Metrics struct {
	// Appends counts records accepted by Append.
	Appends metrics.Counter
	// AppendedBytes counts encoded record bytes buffered by Append.
	AppendedBytes metrics.Counter
	// Syncs counts completed fsyncs (each one covers a group commit).
	Syncs metrics.Counter
	// SyncNanos accumulates wall time spent in write+fsync.
	SyncNanos metrics.Counter
	// Rotations counts segment rotations.
	Rotations metrics.Counter
}

// Log is an append-only write-ahead log over a directory of segments.
//
// Appends are cheap: the framed record is encoded into an in-memory
// buffer under a short mutex hold (the encoding copies everything, so
// callers may reuse their tuples and key buffers the moment Append
// returns). Durability is a separate step: Sync(seq) returns once a disk
// fsync covers the sequence number — and one fsync covers every append
// buffered before it, so concurrent writers waiting on Sync form a group
// commit automatically: while one flusher holds the sync mutex, later
// appends pile into the buffer and the next flusher pays a single fsync
// for all of them.
//
// Errors are sticky: once a write or fsync fails, every subsequent
// Append/Sync returns the same error, so a durability failure can never
// silently degrade into memory-only operation. The engine layer above
// decides what a poisoned log means (degraded read-only mode, retry) —
// the log itself never heals; recovery opens a new one.
//
// All disk access goes through a vfs.FS, so tests can run the log
// against a deterministic unreliable disk (vfs.FaultFS).
type Log struct {
	dir string
	fs  vfs.FS

	// mu guards the append state: the pending buffer, the sequence
	// counter, the active file handle and the sticky error. It is a leaf
	// lock, held only for in-memory encoding.
	mu   sync.Mutex
	buf  []byte
	seq  uint64 // last appended sequence number
	gen  uint64 // active segment generation
	f    vfs.File
	err  error
	size int64 // bytes durably written to the active segment

	// syncMu serialises flushers; the wait for it is the group-commit
	// batching point. durable is the highest sequence number covered by a
	// completed fsync (atomic so the Sync fast path takes no lock).
	syncMu  sync.Mutex
	durable atomic.Uint64
	spare   []byte // recycled flush buffer

	stats Metrics
}

func segmentName(gen uint64) string  { return fmt.Sprintf("wal-%08d.log", gen) }
func snapshotName(gen uint64) string { return fmt.Sprintf("snap-%08d.snap", gen) }

// ReserveBytes sizes the emergency headroom file ("wal.reserve") the log
// keeps pre-allocated in its directory. ENOSPC recovery must write a
// compacting snapshot BEFORE it may delete the old generations (they are
// the durable state until the snapshot lands), so on a full disk the
// reserve is released first and the snapshot goes into that space.
const ReserveBytes = 64 << 10

const reserveName = "wal.reserve"

// ensureReserve pre-allocates the headroom file if absent. Best effort:
// a disk too full to hold the reserve is no worse off for lacking it,
// and the name matches neither segment nor snapshot pattern, so scans
// and RemoveBelow never touch it.
func ensureReserve(fsys vfs.FS, dir string) {
	f, err := fsys.OpenFile(filepath.Join(dir, reserveName), createFlags, 0o644)
	if err != nil {
		return // already present, or no space
	}
	buf := make([]byte, 4096)
	for written := 0; written < ReserveBytes; written += len(buf) {
		if _, err := f.Write(buf); err != nil {
			break
		}
	}
	f.Close()
}

// ReleaseReserve deletes the emergency headroom file, freeing up to
// ReserveBytes for an ENOSPC recovery's compacting snapshot. Call
// EnsureReserve to restore it once the recovery's RemoveBelow has freed
// the old generations.
func (l *Log) ReleaseReserve() {
	_ = l.fs.Remove(filepath.Join(l.dir, reserveName))
	_ = l.fs.SyncDir(l.dir)
}

// EnsureReserve restores the emergency headroom file (best effort).
func (l *Log) EnsureReserve() { ensureReserve(l.fs, l.dir) }

// SnapshotPath returns the path of the snapshot file for generation gen
// inside a log directory — the name WriteSnapshot must be given for
// recovery to find it.
func SnapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, snapshotName(gen))
}

// parseGen extracts the generation from a "prefix-NNNNNNNN.ext" name.
func parseGen(name, prefix, ext string) (uint64, bool) {
	var gen uint64
	var rest string
	if n, err := fmt.Sscanf(name, prefix+"-%d%s", &gen, &rest); err != nil || n != 2 || rest != ext {
		return 0, false
	}
	return gen, true
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// FS returns the filesystem the log was opened against, so checkpoints
// and recovery read and write through the same (possibly faulty) disk.
func (l *Log) FS() vfs.FS { return l.fs }

// Gen returns the active segment generation.
func (l *Log) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Seq returns the last appended sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Err returns the log's sticky error: nil while healthy, ErrClosed after
// a clean Close, or the poisoning write/fsync failure. The watchdog's
// WAL liveness check reads this every evaluation.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Metrics returns the log's live counters.
func (l *Log) Metrics() *Metrics {
	if l == nil {
		return nil
	}
	return &l.stats
}

// Append encodes rec into the pending buffer and returns its sequence
// number. The record is fully copied during the call; it is durable only
// once Sync covers the returned sequence number. Callers that need a
// global order against other writers must serialise their Append calls
// themselves (the engine appends under its own mutex, which makes WAL
// order match apply order).
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	before := len(l.buf)
	l.buf = appendRecord(l.buf, rec)
	l.seq++
	l.stats.Appends.Inc()
	l.stats.AppendedBytes.Add(int64(len(l.buf) - before))
	return l.seq, nil
}

// Sync blocks until a completed fsync covers seq, flushing the pending
// buffer if it must. A seq of 0 (no record appended) returns nil
// immediately unless the log is poisoned.
func (l *Log) Sync(seq uint64) error {
	if l.durable.Load() >= seq {
		// Already durable; still surface a sticky error so callers that
		// lost a previous flush race see it.
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.durable.Load() >= seq {
		return nil
	}
	return l.flushLocked()
}

// flushLocked writes and fsyncs the pending buffer. Callers hold syncMu.
func (l *Log) flushLocked() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	buf := l.buf
	l.buf = l.spare[:0]
	l.spare = nil
	hw := l.seq
	f := l.f
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		start := time.Now()
		if _, werr := f.Write(buf); werr != nil {
			err = werr
		} else if serr := f.Sync(); serr != nil {
			err = serr
		}
		if err == nil {
			l.stats.Syncs.Inc()
			l.stats.SyncNanos.Add(time.Since(start).Nanoseconds())
		}
	}
	l.mu.Lock()
	if err != nil {
		l.err = fmt.Errorf("wal: flush segment %s: %w", segmentName(l.gen), err)
		err = l.err
	} else {
		l.size += int64(len(buf))
		l.spare = buf[:0]
	}
	l.mu.Unlock()
	if err == nil {
		l.durable.Store(hw)
	}
	return err
}

// Rotate flushes and fsyncs the active segment, then starts a fresh one
// with the next generation, returning the new generation. The caller
// must guarantee no concurrent Append (the engine rotates while holding
// every mutation lock).
func (l *Log) Rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: close segment %s: %w", segmentName(l.gen), err)
		return 0, l.err
	}
	gen := l.gen + 1
	f, err := createSegment(l.fs, l.dir, gen)
	if err != nil {
		l.err = err
		return 0, err
	}
	l.gen, l.f, l.size = gen, f, 0
	l.stats.Rotations.Inc()
	return gen, nil
}

// Close flushes, fsyncs and closes the active segment. The log is
// unusable afterwards.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	err := l.flushLocked()
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if l.err == nil {
		l.err = ErrClosed
	}
	return err
}

// RemoveBelow deletes segments and snapshots with generation < gen —
// they are fully covered by the snapshot at gen. Called after a
// checkpoint's snapshot is durable; on a quota-bound disk this is also
// where ENOSPC reclamation gets its space back.
func (l *Log) RemoveBelow(gen uint64) error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var g uint64
		var ok bool
		if g, ok = parseGen(e.Name(), "wal", ".log"); !ok {
			if g, ok = parseGen(e.Name(), "snap", ".snap"); !ok {
				continue
			}
		}
		if g < gen {
			if err := l.fs.Remove(filepath.Join(l.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return l.fs.SyncDir(l.dir)
}

func createSegment(fsys vfs.FS, dir string, gen uint64) (vfs.File, error) {
	path := filepath.Join(dir, segmentName(gen))
	f, err := fsys.OpenFile(path, createFlags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return f, nil
}

// Recovered is what Open found on disk: the best snapshot (nil when none
// is complete) and the segments to replay on top of it.
type Recovered struct {
	// Snapshot is the highest complete snapshot, or nil.
	Snapshot *Snapshot
	// SnapshotGen is the snapshot's generation (0 when Snapshot is nil).
	SnapshotGen uint64
	dir         string
	fs          vfs.FS
	segments    []uint64 // generations to replay, ascending
}

// ReplayStats summarises one Replay pass.
type ReplayStats struct {
	// Records is the number of valid records applied.
	Records int
	// Truncated reports that a torn or corrupt tail was found and cut
	// back to the last valid record.
	Truncated bool
	// TruncatedSegment / TruncatedAt locate the cut (when Truncated).
	TruncatedSegment uint64
	TruncatedAt      int64
}

// Replay streams the recovered records, oldest first, through apply. On
// the first torn or corrupt record it truncates that segment to the last
// valid offset, skips any later segments (they postdate the tear and
// must not be applied out of order), and reports the cut in the stats.
// A segment that cannot be read at all (EIO, not corruption) aborts the
// replay with the I/O error — recovery must not guess at durable state
// it cannot see. An error from apply also aborts the replay.
func (r *Recovered) Replay(apply func(*Record) error) (ReplayStats, error) {
	var stats ReplayStats
	for _, gen := range r.segments {
		path := filepath.Join(r.dir, segmentName(gen))
		buf, err := r.fs.ReadFile(path)
		if err != nil {
			return stats, fmt.Errorf("wal: read segment: %w", err)
		}
		off := 0
		for off < len(buf) {
			rec, next, err := readRecord(buf, off)
			if err != nil {
				// Stop at the last valid record and make the cut
				// physical, so the next boot does not re-diagnose it.
				if terr := r.fs.Truncate(path, int64(off)); terr != nil {
					return stats, fmt.Errorf("wal: truncate torn tail: %w", terr)
				}
				stats.Truncated = true
				stats.TruncatedSegment = gen
				stats.TruncatedAt = int64(off)
				return stats, nil
			}
			if err := apply(&rec); err != nil {
				return stats, fmt.Errorf("wal: replay %s record: %w", rec.Kind, err)
			}
			stats.Records++
			off = next
		}
	}
	return stats, nil
}

// OpenFS prepares a log directory for recovery and appending: it scans
// dir (creating it if needed), deletes stale snapshot temp files left by
// a crash mid-WriteSnapshot, selects the highest complete snapshot plus
// the segments to replay after it, and opens a fresh segment for new
// appends. The caller replays Recovered first, then appends; records are
// never added to an old segment, so a recovery-time truncation can never
// sit in the middle of a live file.
//
// A snapshot that fails validation (ErrCorrupt — crash mid-checkpoint)
// falls back to the previous generation, whose covering segments still
// exist. A snapshot that cannot be read (EIO on a flaky disk) surfaces
// the I/O error instead: falling back would silently recover an older
// state than the disk actually holds.
func OpenFS(dir string, fsys vfs.FS) (*Log, *Recovered, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open dir: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open dir: %w", err)
	}
	var segGens, snapGens []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap.tmp") {
			// Debris from a crash between snapshot create and rename; a
			// complete checkpoint always renames away its temp file.
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, nil, fmt.Errorf("wal: remove stale snapshot temp: %w", err)
			}
			continue
		}
		if g, ok := parseGen(e.Name(), "wal", ".log"); ok {
			segGens = append(segGens, g)
		}
		if g, ok := parseGen(e.Name(), "snap", ".snap"); ok {
			snapGens = append(snapGens, g)
		}
	}
	sort.Slice(segGens, func(i, j int) bool { return segGens[i] < segGens[j] })
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	rec := &Recovered{dir: dir, fs: fsys}
	for _, g := range snapGens {
		snap, err := ReadSnapshotFS(fsys, filepath.Join(dir, snapshotName(g)))
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				// Incomplete (crash mid-checkpoint): fall back to the
				// previous generation, whose covering segments still
				// exist — they are only deleted after a newer snapshot
				// is durable.
				continue
			}
			return nil, nil, fmt.Errorf("wal: snapshot %s unreadable: %w", snapshotName(g), err)
		}
		rec.Snapshot, rec.SnapshotGen = snap, g
		break
	}
	maxGen := rec.SnapshotGen
	for _, g := range segGens {
		if g >= rec.SnapshotGen {
			rec.segments = append(rec.segments, g)
		}
		if g > maxGen {
			maxGen = g
		}
	}

	l := &Log{dir: dir, fs: fsys, gen: maxGen + 1}
	if l.f, err = createSegment(fsys, dir, l.gen); err != nil {
		return nil, nil, err
	}
	ensureReserve(fsys, dir)
	return l, rec, nil
}

// Reopen starts a fresh log in an existing directory without replaying
// it: it scans for the highest generation on disk and opens a new
// segment above it. This is the online-recovery path — the engine still
// holds the authoritative state in memory, so instead of replaying it
// reopens, checkpoints that state as a new snapshot, and discards the
// older generations. Nothing below the new generation is touched until
// that checkpoint succeeds.
func Reopen(dir string, fsys vfs.FS) (*Log, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen dir: %w", err)
	}
	var maxGen uint64
	for _, e := range entries {
		g, ok := parseGen(e.Name(), "wal", ".log")
		if !ok {
			if g, ok = parseGen(e.Name(), "snap", ".snap"); !ok {
				continue
			}
		}
		if g > maxGen {
			maxGen = g
		}
	}
	l := &Log{dir: dir, fs: fsys, gen: maxGen + 1}
	if l.f, err = createSegment(fsys, dir, l.gen); err != nil {
		return nil, err
	}
	return l, nil
}
