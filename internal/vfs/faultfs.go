package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// ErrInjected marks every failure FaultFS fabricates, so a test can
// assert a fault came from its script rather than the real disk. Errors
// carrying a specific errno (ENOSPC, EIO) wrap both sentinels:
// errors.Is(err, ErrInjected) and errors.Is(err, syscall.ENOSPC) are
// both true.
var ErrInjected = errors.New("vfs: injected fault")

// FaultFS wraps another FS with a deterministic fault script — the
// faultconntest idiom applied to disk. All faults are armed explicitly and
// fire at exact operation counts; nothing is random, so a failing test
// reproduces byte-for-byte. The zero schedule is fully transparent.
//
// Fault classes:
//   - FailSyncs: the fsync schedule covers file Sync and SyncDir alike
//     (skip the first N, fail the next M — or all — with a chosen error).
//   - FailReads: ReadFile fails on schedule (EIO on a flaky read).
//   - TornWrite: the next file write persists only a prefix, then errors —
//     a crash mid-write.
//   - SetQuota: a live-byte budget; writes that would exceed it fail with
//     ENOSPC. Remove/Truncate/Rename give bytes back, so expiry
//     reclamation (delete old generations, write a compacted snapshot)
//     genuinely frees space.
type FaultFS struct {
	inner FS

	mu sync.Mutex
	// fsync schedule: syncs 1..skipSyncs succeed, then failSyncs more
	// fail with syncErr (failSyncs < 0 = every one until healed).
	skipSyncs int
	failSyncs int
	syncErr   error

	// read schedule, same shape, applied to ReadFile.
	skipReads int
	failReads int
	readErr   error

	tornWrite int // -1 = off; next write keeps this many bytes then fails

	quota int64 // -1 = unlimited live-byte budget
	used  int64
	sizes map[string]int64

	syncs    int
	writes   int
	injected int
}

// NewFault wraps inner (typically OS()) with an empty fault script.
func NewFault(inner FS) *FaultFS {
	return &FaultFS{
		inner:     inner,
		tornWrite: -1,
		quota:     -1,
		sizes:     make(map[string]int64),
	}
}

func injected(errno error) error {
	return fmt.Errorf("%w: %w", ErrInjected, errno)
}

// FailSyncs arms the fsync schedule: the next `after` fsyncs (file or
// directory) succeed, then `count` fsyncs fail with err (count < 0 =
// every subsequent one until Heal). A nil err injects EIO.
func (x *FaultFS) FailSyncs(after, count int, err error) {
	if err == nil {
		err = injected(syscall.EIO)
	}
	x.mu.Lock()
	x.skipSyncs, x.failSyncs, x.syncErr = after, count, err
	x.mu.Unlock()
}

// FailReads arms the ReadFile schedule: `after` reads succeed, then
// `count` fail with err (count < 0 = until Heal). A nil err injects EIO.
func (x *FaultFS) FailReads(after, count int, err error) {
	if err == nil {
		err = injected(syscall.EIO)
	}
	x.mu.Lock()
	x.skipReads, x.failReads, x.readErr = after, count, err
	x.mu.Unlock()
}

// TornWrite makes the next file write persist only its first keep bytes
// and then fail — the on-disk image of a crash mid-write.
func (x *FaultFS) TornWrite(keep int) {
	x.mu.Lock()
	x.tornWrite = keep
	x.mu.Unlock()
}

// SetQuota caps the live bytes written through this FS at n (n < 0
// removes the cap). Bytes already accounted stay counted; freeing space
// requires removing or truncating files.
func (x *FaultFS) SetQuota(n int64) {
	x.mu.Lock()
	x.quota = n
	x.mu.Unlock()
}

// Heal clears every error-injection schedule (sync, read, torn write).
// The quota — disk geometry, not a fault — stays.
func (x *FaultFS) Heal() {
	x.mu.Lock()
	x.skipSyncs, x.failSyncs, x.syncErr = 0, 0, nil
	x.skipReads, x.failReads, x.readErr = 0, 0, nil
	x.tornWrite = -1
	x.mu.Unlock()
}

// Used reports the live bytes currently accounted against the quota.
func (x *FaultFS) Used() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.used
}

// Syncs reports how many fsyncs (file + directory) have been attempted.
func (x *FaultFS) Syncs() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.syncs
}

// Injected reports how many operations have failed by script.
func (x *FaultFS) Injected() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.injected
}

// syncFault advances the fsync schedule and returns the injected error,
// if this fsync is the scripted one.
func (x *FaultFS) syncFault() error {
	x.mu.Lock()
	x.syncs++
	var err error
	if x.skipSyncs > 0 {
		x.skipSyncs--
	} else if x.failSyncs != 0 {
		if x.failSyncs > 0 {
			x.failSyncs--
		}
		x.injected++
		err = x.syncErr
	}
	x.mu.Unlock()
	return err
}

type faultFile struct {
	f  File
	x  *FaultFS
	nm string
}

func (f *faultFile) Name() string { return f.nm }

func (f *faultFile) Write(p []byte) (int, error) {
	x := f.x
	x.mu.Lock()
	x.writes++
	if x.tornWrite >= 0 {
		keep := x.tornWrite
		if keep > len(p) {
			keep = len(p)
		}
		x.tornWrite = -1
		x.injected++
		x.sizes[f.nm] += int64(keep)
		x.used += int64(keep)
		x.mu.Unlock()
		if keep > 0 {
			if _, err := f.f.Write(p[:keep]); err != nil {
				return 0, err
			}
		}
		return keep, fmt.Errorf("vfs: torn write after %d bytes: %w", keep, injected(syscall.EIO))
	}
	if x.quota >= 0 && x.used+int64(len(p)) > x.quota {
		x.injected++
		x.mu.Unlock()
		return 0, fmt.Errorf("vfs: disk full: %w", injected(syscall.ENOSPC))
	}
	x.sizes[f.nm] += int64(len(p))
	x.used += int64(len(p))
	x.mu.Unlock()
	return f.f.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.x.syncFault(); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error { return f.f.Close() }

func (x *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := x.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	if flag&os.O_TRUNC != 0 {
		x.used -= x.sizes[name]
		x.sizes[name] = 0
	}
	x.mu.Unlock()
	return &faultFile{f: f, x: x, nm: name}, nil
}

func (x *FaultFS) ReadFile(name string) ([]byte, error) {
	x.mu.Lock()
	if x.skipReads > 0 {
		x.skipReads--
	} else if x.failReads != 0 {
		if x.failReads > 0 {
			x.failReads--
		}
		x.injected++
		err := x.readErr
		x.mu.Unlock()
		return nil, fmt.Errorf("vfs: read %s: %w", name, err)
	}
	x.mu.Unlock()
	return x.inner.ReadFile(name)
}

func (x *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return x.inner.ReadDir(name) }

func (x *FaultFS) Rename(oldpath, newpath string) error {
	if err := x.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	x.mu.Lock()
	x.used -= x.sizes[newpath] // rename-over frees the target's bytes
	x.sizes[newpath] = x.sizes[oldpath]
	delete(x.sizes, oldpath)
	x.mu.Unlock()
	return nil
}

func (x *FaultFS) Remove(name string) error {
	if err := x.inner.Remove(name); err != nil {
		return err
	}
	x.mu.Lock()
	x.used -= x.sizes[name]
	delete(x.sizes, name)
	x.mu.Unlock()
	return nil
}

func (x *FaultFS) Truncate(name string, size int64) error {
	if err := x.inner.Truncate(name, size); err != nil {
		return err
	}
	x.mu.Lock()
	if have, ok := x.sizes[name]; ok && size < have {
		x.used -= have - size
		x.sizes[name] = size
	}
	x.mu.Unlock()
	return nil
}

func (x *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return x.inner.MkdirAll(path, perm)
}

func (x *FaultFS) SyncDir(dir string) error {
	if err := x.syncFault(); err != nil {
		return err
	}
	return x.inner.SyncDir(dir)
}
