package wal

import (
	"fmt"
	"os"
	"path/filepath"

	"expdb/internal/tuple"
	"expdb/internal/vfs"
	"expdb/internal/xtime"
)

// Snapshot is a decoded point-in-time image of the durable state: the
// logical clock, the lazy sweeper's position, every table with per-row
// texp, and every view definition. The expiration schedule is absent on
// purpose — recovery re-derives it from the stored texp values.
type Snapshot struct {
	Clock     xtime.Time
	LastSweep xtime.Time
	Tables    []SnapshotTable
	Views     []SnapshotView
	Indexes   []SnapshotIndex
}

// SnapshotTable is one table image.
type SnapshotTable struct {
	Name   string
	Schema tuple.Schema
	Rows   []SnapshotRow
}

// SnapshotRow is one stored row with its expiration time.
type SnapshotRow struct {
	Tuple tuple.Tuple
	Texp  xtime.Time
}

// SnapshotView is one view definition, kept as the full SQL statement
// text so recovery can recompile it through the SQL layer.
type SnapshotView struct {
	Name string
	Def  string
}

// SnapshotIndex is one secondary-index definition, kept as the full
// CREATE INDEX statement text. Restored after the tables, so the
// attach-time backfill indexes every snapshot row; index contents are
// never persisted.
type SnapshotIndex struct {
	Name string
	Def  string
}

// Records counts the body records (everything between header and
// footer) — the value the footer carries.
func (s *Snapshot) Records() uint64 {
	n := uint64(len(s.Views)) + uint64(len(s.Indexes))
	for _, t := range s.Tables {
		n += 1 + uint64(len(t.Rows))
	}
	return n
}

// WriteSnapshotFS atomically writes snap to path: encode into a temp
// file in the same directory, fsync, rename over path, fsync the
// directory. A crash at any point leaves either the old file or the
// complete new one — never a torn snapshot under the final name (a temp
// file surviving a crash is deleted by the next Open).
func WriteSnapshotFS(fsys vfs.FS, path string, snap *Snapshot) error {
	buf := appendSnapshot(nil, snap)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// appendSnapshot appends the records of a snapshot file to dst: header,
// each table followed by its rows, views, indexes, footer.
func appendSnapshot(dst []byte, snap *Snapshot) []byte {
	rec := Record{Kind: KindSnapHeader, Texp: snap.Clock, Aux: snap.LastSweep}
	dst = appendRecord(dst, &rec)
	for _, t := range snap.Tables {
		rec = Record{Kind: KindSnapTable, Name: t.Name, Schema: t.Schema}
		dst = appendRecord(dst, &rec)
		for _, r := range t.Rows {
			rec = Record{Kind: KindSnapRow, Tuple: r.Tuple, Texp: r.Texp}
			dst = appendRecord(dst, &rec)
		}
	}
	for _, v := range snap.Views {
		rec = Record{Kind: KindSnapView, Name: v.Name, Def: v.Def}
		dst = appendRecord(dst, &rec)
	}
	for _, ix := range snap.Indexes {
		rec = Record{Kind: KindSnapIndex, Name: ix.Name, Def: ix.Def}
		dst = appendRecord(dst, &rec)
	}
	rec = Record{Kind: KindSnapFooter, Count: snap.Records()}
	return appendRecord(dst, &rec)
}

// ReadSnapshotFS loads and validates a snapshot file. Any content
// defect — bad framing, wrong record order, a missing footer, or a
// footer whose count disagrees with the body — returns an error wrapping
// ErrCorrupt; recovery then falls back to an older generation. A read
// failure (EIO on a flaky disk) is NOT ErrCorrupt: the snapshot may be
// perfectly good, so the caller must surface the I/O error rather than
// silently recover older state.
func ReadSnapshotFS(fsys vfs.FS, path string) (*Snapshot, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	return decodeSnapshot(buf)
}

// decodeSnapshot decodes the bytes of a snapshot file.
func decodeSnapshot(buf []byte) (*Snapshot, error) {
	var (
		snap  Snapshot
		off   int
		body  uint64
		open  bool // header seen
		done  bool // footer seen
		table *SnapshotTable
	)
	for off < len(buf) {
		rec, next, err := readRecord(buf, off)
		if err != nil {
			return nil, err
		}
		if done {
			return nil, fmt.Errorf("%w: snapshot record after footer", ErrCorrupt)
		}
		switch rec.Kind {
		case KindSnapHeader:
			if open {
				return nil, fmt.Errorf("%w: duplicate snapshot header", ErrCorrupt)
			}
			open = true
			snap.Clock, snap.LastSweep = rec.Texp, rec.Aux
		case KindSnapTable:
			if !open {
				return nil, fmt.Errorf("%w: snapshot table before header", ErrCorrupt)
			}
			snap.Tables = append(snap.Tables, SnapshotTable{Name: rec.Name, Schema: rec.Schema})
			table = &snap.Tables[len(snap.Tables)-1]
			body++
		case KindSnapRow:
			if table == nil {
				return nil, fmt.Errorf("%w: snapshot row outside a table", ErrCorrupt)
			}
			table.Rows = append(table.Rows, SnapshotRow{Tuple: rec.Tuple, Texp: rec.Texp})
			body++
		case KindSnapView:
			if !open {
				return nil, fmt.Errorf("%w: snapshot view before header", ErrCorrupt)
			}
			snap.Views = append(snap.Views, SnapshotView{Name: rec.Name, Def: rec.Def})
			body++
		case KindSnapIndex:
			if !open {
				return nil, fmt.Errorf("%w: snapshot index before header", ErrCorrupt)
			}
			snap.Indexes = append(snap.Indexes, SnapshotIndex{Name: rec.Name, Def: rec.Def})
			body++
		case KindSnapFooter:
			if !open {
				return nil, fmt.Errorf("%w: snapshot footer before header", ErrCorrupt)
			}
			if rec.Count != body {
				return nil, fmt.Errorf("%w: snapshot footer count %d, body has %d records",
					ErrCorrupt, rec.Count, body)
			}
			done = true
		default:
			return nil, fmt.Errorf("%w: %s record inside a snapshot", ErrCorrupt, rec.Kind)
		}
		off = next
	}
	if !done {
		return nil, fmt.Errorf("%w: snapshot missing footer (torn write)", ErrCorrupt)
	}
	return &snap, nil
}
