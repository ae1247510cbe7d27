package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"expdb/internal/engine"
	"expdb/internal/tuple"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// RunE12 measures what durability costs and what recovery buys. The same
// session workload is loaded into a memory-only engine and a durable one
// (write-ahead log, group-commit fsync per statement), then the durable
// directory is recovered twice: once by replaying the full log and once
// from a checkpoint snapshot. The spread between the two recoveries is
// the replay work a checkpoint buys back; the load-time spread is the
// price of logging every mutation.
func RunE12(w io.Writer) error {
	// Small enough that the per-insert fsyncs keep the full suite quick,
	// large enough that the replay-vs-snapshot spread is visible.
	const sessions = 5000
	load := func(e *engine.Engine) (xtime.Time, error) {
		if err := e.CreateTable("sess", tuple.IntCols("id")); err != nil {
			return 0, err
		}
		var horizon xtime.Time
		for _, s := range workload.Sessions(sessions, 3, 10, 200, 5) {
			texp := s.Start + s.TTL
			if err := e.Insert("sess", tuple.Ints(s.ID), texp); err != nil {
				return 0, err
			}
			if texp > horizon {
				horizon = texp
			}
		}
		return horizon, nil
	}

	t := newTable("configuration", "load wall time", "rows recovered", "records replayed", "recover wall time")

	// Baseline: memory-only.
	mem := engine.New()
	start := time.Now()
	if _, err := load(mem); err != nil {
		return err
	}
	t.add("memory-only", time.Since(start), "-", "-", "-")

	// Durable load: every insert is logged and fsynced before it returns.
	dir, err := os.MkdirTemp("", "expdb-e12-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur := engine.New(engine.WithDurability(dir))
	if _, err := dur.OpenDurability(nil); err != nil {
		return err
	}
	start = time.Now()
	horizon, err := load(dur)
	if err != nil {
		return err
	}
	loadWall := time.Since(start)
	// One directory, one live log: hand the directory over before the
	// recovery engines open it.
	if err := dur.CloseDurability(); err != nil {
		return err
	}

	// Recovery by full log replay.
	start = time.Now()
	replayed := engine.New(engine.WithDurability(dir))
	info, err := replayed.OpenDurability(nil)
	if err != nil {
		return err
	}
	t.add("durable (log replay)", loadWall, info.Rows, info.Records, time.Since(start))

	// Checkpoint from the recovered engine, then recover again: the
	// replay suffix is now empty.
	if err := replayed.Checkpoint(); err != nil {
		return err
	}
	if err := replayed.CloseDurability(); err != nil {
		return err
	}
	start = time.Now()
	snapped := engine.New(engine.WithDurability(dir))
	info, err = snapped.OpenDurability(nil)
	if err != nil {
		return err
	}
	recoverWall := time.Since(start)
	t.add("durable (snapshot)", loadWall, info.Rows, info.Records, recoverWall)

	// The catch-up advance fires every expiration the recovered rows
	// carry, proving stored texp alone survives the WAL round trip.
	if err := snapped.Advance(horizon + 1); err != nil {
		return err
	}
	if got := snapped.Stats().TuplesExpired; got != sessions {
		return fmt.Errorf("e12: catch-up advance expired %d of %d tuples", got, sessions)
	}
	if err := snapped.CloseDurability(); err != nil {
		return err
	}

	t.write(w)
	fmt.Fprintln(w, "shape: logging costs one fsync-batched append per mutation; snapshot recovery")
	fmt.Fprintln(w, "skips log replay entirely, and the expiry schedule is re-derived from stored")
	fmt.Fprintln(w, "texp either way — the scheduler is a cache, never durable state.")
	return nil
}
