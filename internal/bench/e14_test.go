package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"expdb/internal/engine"
	"expdb/internal/sql"
	"expdb/internal/vfs"
)

// runE14 checks the storage-fault contract of the degraded read-only
// mode: the paper's premise — in-memory state stays provably valid —
// means a dead disk (a sticky fsync error on the WAL) must stop writes
// with ErrReadOnly, not reads, and recovery after the disk heals must
// restore write service. The same reads run against the engine healthy
// and degraded, and every degraded answer must equal the healthy one.
func runE14(w io.Writer) error {
	const (
		rows    = 5_000
		sensors = 64
		reads   = 2_000
		seed    = 20060614
	)
	ffs := vfs.NewFault(vfs.OS())
	dir, err := os.MkdirTemp("", "expdb-e14-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// An hour's backoff keeps the background retry from healing the
	// engine before the test does.
	e := engine.New(engine.WithDurability(dir), engine.WithVFS(ffs),
		engine.WithDiskRetryBackoff(time.Hour))
	if _, err := e.OpenDurability(nil); err != nil {
		return err
	}
	defer e.CloseDurability()
	s := sql.NewSession(e, nil)
	if _, err := s.Exec("CREATE TABLE readings (sensor INT, val INT)"); err != nil {
		return err
	}
	load := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf(
			"INSERT INTO readings VALUES (%d, %d) EXPIRES AT %d",
			load.Intn(sensors), load.Intn(1000), 5_000+load.Intn(10_000))); err != nil {
			return err
		}
	}

	stream := make([]op, reads)
	for i := range stream {
		stream[i] = op{stmt: fmt.Sprintf("SELECT COUNT(*), SUM(val) FROM readings WHERE sensor = %d", i%sensors), isRead: true}
	}
	healthy, err := replay(s, stream, nil, false)
	if err != nil {
		return err
	}

	// Kill the disk; the next durable mutation degrades the engine. That
	// insert stays applied in memory (its durability is indeterminate,
	// not refused), so it writes a sensor no read selects.
	ffs.FailSyncs(0, -1, nil)
	if _, err := s.Exec(fmt.Sprintf("INSERT INTO readings VALUES (%d, 0) EXPIRES AT 99999", sensors)); err == nil {
		return errors.New("e14: insert on failed disk succeeded")
	}
	state := e.DurabilityState()
	degraded, err := replay(s, stream, healthy, false)
	if err != nil {
		return fmt.Errorf("e14: degraded read: %w", err)
	}
	_, refused := s.Exec("INSERT INTO readings VALUES (0, 1) EXPIRES AT 99999")

	// Heal and recover: write service resumes.
	ffs.Heal()
	if err := e.TryDiskRecovery(); err != nil {
		return fmt.Errorf("e14: recovery after heal: %w", err)
	}
	_, healed := s.Exec("INSERT INTO readings VALUES (0, 2) EXPIRES AT 99999")

	t := newTable("durability state", "reads answered")
	t.add("healthy", len(healthy))
	t.add(fmt.Sprintf("%v (read-only)", state), len(degraded))
	t.write(w)
	fmt.Fprintf(w, "INSERT while degraded is refused with ErrReadOnly: %v\n", errors.Is(refused, engine.ErrReadOnly))
	fmt.Fprintf(w, "INSERT after heal + TryDiskRecovery succeeds: %v\n", healed == nil)
	fmt.Fprintln(w, "shape: a dead disk stops writes (ErrReadOnly), not reads — the in-memory")
	fmt.Fprintln(w, "state remains valid, so every read is answered as before; after the disk")
	fmt.Fprintln(w, "heals, one recovery checkpoint restores write service.")
	return nil
}
