package bench

import (
	"fmt"
	"io"
	"os"

	"expdb/internal/engine"
	"expdb/internal/tuple"
	"expdb/internal/workload"
	"expdb/internal/xtime"
)

// runE12 checks what recovery restores. A session workload is loaded
// into a durable engine (write-ahead log, group-commit fsync per
// statement), then the directory is recovered twice: once by replaying
// the full log and once from a checkpoint snapshot, which replays nothing.
// A catch-up advance on the recovered engine must then fire every
// expiration the stored rows carry.
func runE12(w io.Writer) error {
	const sessions = 5000
	t := newTable("configuration", "rows recovered", "records replayed")

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
	if err := dur.CreateTable("sess", tuple.IntCols("id")); err != nil {
		return err
	}
	var horizon xtime.Time
	for _, s := range workload.Sessions(sessions, 3, 10, 200, 5) {
		if err := dur.Insert("sess", tuple.Ints(s.ID), s.Start+s.TTL); err != nil {
			return err
		}
		horizon = max(horizon, s.Start+s.TTL)
	}
	// One directory, one live log: hand the directory over before the
	// recovery engines open it.
	if err := dur.CloseDurability(); err != nil {
		return err
	}

	// Recovery by full log replay.
	replayed := engine.New(engine.WithDurability(dir))
	info, err := replayed.OpenDurability(nil)
	if err != nil {
		return err
	}
	t.add("durable (log replay)", info.Rows, info.Records)

	// Checkpoint from the recovered engine, then recover again: the
	// replay suffix is now empty.
	if err := replayed.Checkpoint(); err != nil {
		return err
	}
	if err := replayed.CloseDurability(); err != nil {
		return err
	}
	snapped := engine.New(engine.WithDurability(dir))
	info, err = snapped.OpenDurability(nil)
	if err != nil {
		return err
	}
	t.add("durable (snapshot)", info.Rows, info.Records)

	// The catch-up advance fires every expiration the recovered rows
	// carry, proving stored texp alone survives the WAL round trip.
	if err := snapped.Advance(horizon + 1); err != nil {
		return err
	}
	if err := snapped.CloseDurability(); err != nil {
		return err
	}

	t.write(w)
	fmt.Fprintf(w, "catch-up advance after the snapshot recovery: %d of %d sessions expired\n",
		snapped.Stats().TuplesExpired, sessions)
	fmt.Fprintln(w, "shape: log replay re-applies every logged statement; a snapshot recovers the")
	fmt.Fprintln(w, "same rows and replays nothing. Either way the expiry schedule is re-derived")
	fmt.Fprintln(w, "from stored texp — the scheduler is a cache, never durable state.")
	return nil
}
