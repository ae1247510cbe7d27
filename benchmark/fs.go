package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"expdb"
	"expdb/internal/vfs"
)

// flushPolicy is recorded in every output file. Durable workloads write
// their WAL through benchFS: every write reaches the operating system,
// every Sync is counted and moves the file's durable watermark, but the
// device flush itself is not issued. On a shared sandbox disk one fsync
// costs 150-250 µs with ±10 % run-to-run drift against ≈6 µs for the whole
// durable insert code path, so issuing it would make session_ingest a
// benchmark of the host's disk; eliding it keeps the WAL's own work
// (encode, buffer, write, group-commit bookkeeping) measurable. The
// watermark is what the crash image is cut at, so the recovery check still
// sees only bytes a real fsync would have covered.
const flushPolicy = "fsync counted, watermark recorded, device flush elided"

// benchFS is the filesystem durable workloads run on: the OS filesystem
// with flush accounting (see flushPolicy).
type benchFS struct {
	inner expdb.FS

	mu      sync.Mutex
	written map[string]int64 // bytes written per file since creation
	synced  map[string]int64 // bytes covered by the file's last Sync
	syncs   int64
	bytes   int64
}

func newBenchFS() *benchFS {
	return &benchFS{inner: expdb.OSFS(), written: map[string]int64{}, synced: map[string]int64{}}
}

func (b *benchFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := b.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_TRUNC != 0 || flag&os.O_EXCL != 0 {
		b.mu.Lock()
		b.written[name], b.synced[name] = 0, 0
		b.mu.Unlock()
	}
	return &countedFile{f: f, fs: b, name: name}, nil
}

func (b *benchFS) ReadFile(name string) ([]byte, error)         { return b.inner.ReadFile(name) }
func (b *benchFS) ReadDir(name string) ([]fs.DirEntry, error)   { return b.inner.ReadDir(name) }
func (b *benchFS) Remove(name string) error                     { return b.inner.Remove(name) }
func (b *benchFS) MkdirAll(path string, perm os.FileMode) error { return b.inner.MkdirAll(path, perm) }

// SyncDir is a device flush of directory metadata; elided like Sync.
func (b *benchFS) SyncDir(string) error { return nil }

func (b *benchFS) Rename(oldpath, newpath string) error {
	if err := b.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	b.mu.Lock()
	b.written[newpath], b.synced[newpath] = b.written[oldpath], b.synced[oldpath]
	delete(b.written, oldpath)
	delete(b.synced, oldpath)
	b.mu.Unlock()
	return nil
}

func (b *benchFS) Truncate(name string, size int64) error {
	if err := b.inner.Truncate(name, size); err != nil {
		return err
	}
	b.mu.Lock()
	b.written[name] = size
	if b.synced[name] > size {
		b.synced[name] = size
	}
	b.mu.Unlock()
	return nil
}

// totals returns the number of Sync calls and bytes written so far.
func (b *benchFS) totals() (syncs, bytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.syncs, b.bytes
}

// crashImage copies dir to dst as a power cut would leave it: each file
// holds only the bytes its last Sync covered. The database in dir is not
// closed or checkpointed first.
func (b *benchFS) crashImage(dir, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		src := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		b.mu.Lock()
		durable := b.synced[src]
		b.mu.Unlock()
		if durable < int64(len(data)) {
			data = data[:durable]
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

type countedFile struct {
	f    vfs.File
	fs   *benchFS
	name string
}

func (c *countedFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.fs.mu.Lock()
	c.fs.written[c.name] += int64(n)
	c.fs.bytes += int64(n)
	c.fs.mu.Unlock()
	return n, err
}

func (c *countedFile) Sync() error {
	c.fs.mu.Lock()
	c.fs.synced[c.name] = c.fs.written[c.name]
	c.fs.syncs++
	c.fs.mu.Unlock()
	return nil
}

func (c *countedFile) Close() error { return c.f.Close() }
func (c *countedFile) Name() string { return c.f.Name() }
