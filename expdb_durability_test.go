package expdb_test

import (
	"fmt"
	"strings"
	"testing"

	"expdb"
)

// figure1Script seeds the paper's Figure 1 example plus a maintained
// view, through the SQL surface.
const figure1Script = `
	CREATE TABLE pol (uid INT, deg INT);
	CREATE TABLE el  (uid INT, deg INT);
	INSERT INTO pol VALUES (1, 25) EXPIRES AT 10;
	INSERT INTO pol VALUES (2, 25) EXPIRES AT 15;
	INSERT INTO pol VALUES (3, 35) EXPIRES AT 10;
	INSERT INTO el VALUES (1, 75) EXPIRES AT 5;
	INSERT INTO el VALUES (2, 85) EXPIRES AT 3;
	INSERT INTO el VALUES (4, 90) EXPIRES AT 2;
	CREATE MATERIALIZED VIEW hist AS SELECT deg, COUNT(*) FROM pol GROUP BY deg;
`

// render produces a canonical dump of every table and view for
// byte-equivalence comparisons.
func render(t *testing.T, db *expdb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, q := range []string{
		"SELECT * FROM pol ORDER BY uid",
		"SELECT * FROM el ORDER BY uid",
		"SELECT * FROM hist ORDER BY deg",
	} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		fmt.Fprintf(&b, "-- %s @%v\n", q, res.At)
		for _, row := range res.Rows() {
			fmt.Fprintf(&b, "%v texp=%v\n", row.Tuple, row.Texp)
		}
	}
	return b.String()
}

// TestDurableKillAndRecover: a database killed without a clean close and
// recovered must be byte-equivalent to one that never crashed, across
// DDL, DML, views and clock advances — and again after a checkpoint.
func TestDurableKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	crashed, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	reference := expdb.Open()
	for _, db := range []*expdb.DB{crashed, reference} {
		if _, err := db.ExecScript(figure1Script); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`ADVANCE TO 4`)
		db.MustExec(`INSERT INTO el VALUES (5, 60) EXPIRES AT 20`)
		db.MustExec(`DELETE FROM pol WHERE uid = 3`)
	}
	// Kill: no Close, no Checkpoint. Every statement was fsynced.
	recovered, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := recovered.RecoveryInfo()
	if !info.Recovered || info.Clock != 4 || info.Views != 1 {
		t.Fatalf("recovery info: %+v", info)
	}
	if got, want := render(t, recovered), render(t, reference); got != want {
		t.Fatalf("recovered state differs from never-crashed run:\n--- got\n%s--- want\n%s", got, want)
	}

	// Keep going on both: the recovered database must stay equivalent
	// through further expirations.
	for _, db := range []*expdb.DB{recovered, reference} {
		db.MustExec(`ADVANCE TO 12`)
	}
	if got, want := render(t, recovered), render(t, reference); got != want {
		t.Fatalf("post-advance state differs:\n--- got\n%s--- want\n%s", got, want)
	}

	// Checkpoint, recover from the snapshot, compare once more.
	if err := recovered.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	snapped, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen := snapped.RecoveryInfo().SnapshotGen; gen == 0 {
		t.Fatalf("expected snapshot recovery, gen = %d", gen)
	}
	if got, want := render(t, snapped), render(t, reference); got != want {
		t.Fatalf("snapshot recovery differs:\n--- got\n%s--- want\n%s", got, want)
	}
	if err := snapped.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableViewPlansRecompile: a view over an indexed table stores its
// physical plan, and recompiling the logged CREATE VIEW — from the log, in
// statement order, and from a snapshot, where indexes are rebuilt before
// views — gives the same SHOW VIEWS text and the same rows as the database
// that never stopped.
func TestDurableViewPlansRecompile(t *testing.T) {
	dir := t.TempDir()
	db, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecScript(figure1Script + `
		CREATE INDEX pol_deg ON pol (deg);
		CREATE VIEW young AS SELECT uid FROM pol WHERE deg = 25 EXCEPT SELECT uid FROM el;
		ADVANCE TO 2;
	`); err != nil {
		t.Fatal(err)
	}
	state := func(db *expdb.DB) string {
		t.Helper()
		// The definition text only: a snapshot recovery re-materialises at
		// the recovered tick, so the window's start legitimately differs.
		out := ""
		for _, line := range strings.Split(db.MustExec("SHOW VIEWS").Msg, "\n") {
			def, _, _ := strings.Cut(line, " (texp ")
			out += def + "\n"
		}
		out += render(t, db)
		for _, row := range db.MustExec("SELECT * FROM young ORDER BY uid").Rows() {
			out += fmt.Sprintf("young %v texp=%v\n", row.Tuple, row.Texp)
		}
		return out
	}
	want := state(db)
	if !strings.Contains(want, "ixscan[pol_deg") {
		t.Fatalf("the view does not recompute through the index:\n%s", want)
	}
	fromLog, err := expdb.OpenDurable(dir) // kill: no Close
	if err != nil {
		t.Fatal(err)
	}
	if got := state(fromLog); got != want {
		t.Fatalf("recompiled from the log:\n%s--- want\n%s", got, want)
	}
	if err := fromLog.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fromLog.Close(); err != nil {
		t.Fatal(err)
	}
	fromSnap, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fromSnap.Close()
	if gen := fromSnap.RecoveryInfo().SnapshotGen; gen == 0 {
		t.Fatal("expected snapshot recovery")
	}
	if got := state(fromSnap); got != want {
		t.Fatalf("recompiled from the snapshot:\n%s--- want\n%s", got, want)
	}
}

// TestDurableDroppedObjectsStayDropped: DROP TABLE survives recovery —
// both from the log and from a snapshot taken after the drop.
func TestDurableDroppedObjectsStayDropped(t *testing.T) {
	dir := t.TempDir()
	db, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE a (x INT)`)
	db.MustExec(`CREATE TABLE b (x INT)`)
	db.MustExec(`INSERT INTO a VALUES (1) EXPIRES AT 100`)
	db.MustExec(`DROP TABLE a`)

	db2, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info := db2.RecoveryInfo(); info.Tables != 1 {
		t.Fatalf("recovered %d tables, want 1 (a was dropped)", info.Tables)
	}
	if _, err := db2.Exec(`SELECT * FROM a`); err == nil {
		t.Fatal("dropped table came back from the log")
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db3.Exec(`SELECT * FROM a`); err == nil {
		t.Fatal("dropped table came back from the snapshot")
	}
	if _, err := db3.Exec(`SELECT * FROM b`); err != nil {
		t.Fatalf("surviving table lost: %v", err)
	}
}

// TestDurableTriggersCatchUp: ON-EXPIRE NOTIFY triggers registered after
// recovery fire exactly once for expirations whose tick passes in the
// catch-up advance, at their original expiration times.
func TestDurableTriggersCatchUp(t *testing.T) {
	dir := t.TempDir()
	db, err := expdb.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE s (id INT)`)
	db.MustExec(`INSERT INTO s VALUES (1) EXPIRES AT 10`)
	db.MustExec(`INSERT INTO s VALUES (2) EXPIRES AT 20`)
	db.MustExec(`ADVANCE TO 5`)

	var notes strings.Builder
	db2, err := expdb.OpenDurableWithNotify(dir, &notes)
	if err != nil {
		t.Fatal(err)
	}
	type hit struct {
		id int64
		at expdb.Time
	}
	var hits []hit
	if err := db2.OnExpire("s", func(_ string, row expdb.Row, at expdb.Time) {
		hits = append(hits, hit{id: row.Tuple[0].AsInt(), at: at})
	}); err != nil {
		t.Fatal(err)
	}
	// The process was "down" while wall time moved on; the first advance
	// jumps the clock and fires both missed expirations in one batch.
	db2.MustExec(`ADVANCE TO 100`)
	if len(hits) != 2 {
		t.Fatalf("catch-up fired %d triggers, want 2: %+v", len(hits), hits)
	}
	if hits[0] != (hit{id: 1, at: 10}) || hits[1] != (hit{id: 2, at: 20}) {
		t.Fatalf("triggers fired with wrong original texp: %+v", hits)
	}
	db2.MustExec(`ADVANCE TO 200`)
	if len(hits) != 2 {
		t.Fatalf("expirations re-fired: %+v", hits)
	}
}
