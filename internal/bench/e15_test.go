package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"expdb/internal/engine"
	"expdb/internal/sql"
)

// runE15 checks the expiration-aware secondary indexes: the same
// deterministic operation streams — point lookups, range scans,
// interleaved inserts, deletes and clock advances — are replayed against
// two engines that differ only in whether indexes exist, and every
// answer (visible rows AND validity interval) is string-compared between
// them. The probe is correct only because the index entries carry
// per-tuple expiration times: it skips expired entries at read time, so
// the indexed engine answers exactly what the scanning engine answers at
// every instant, lazily swept or not. The result cache is off on both
// sides so every read takes the planned access path, which EXPLAIN
// prints for each stream's first read.
func runE15(w io.Writer) error {
	const (
		rows      = 20_000
		keySpace  = 8_000
		pointOps  = 900
		rangeOps  = 250
		seed      = 20060615
		rangeSpan = 40
	)

	// Two pre-generated streams so both configurations replay
	// bit-identical work. Reads dominate; inserts, deletes and advances
	// are sprinkled through so the index sees live maintenance and
	// expirations mid-workload, not just a static load.
	mkStream := func(ops int, seed int64, read func(r *rand.Rand) string) []op {
		r := rand.New(rand.NewSource(seed))
		stream := make([]op, 0, ops)
		now := 0
		for i := 0; i < ops; i++ {
			switch {
			case i%150 == 149:
				now++
				stream = append(stream, op{stmt: fmt.Sprintf("ADVANCE TO %d", now)})
			case i%90 == 44:
				stream = append(stream, op{stmt: fmt.Sprintf(
					"INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
					r.Intn(keySpace), r.Intn(100_000), r.Intn(1_000),
					now+3+r.Intn(25))})
			case i%300 == 177:
				stream = append(stream, op{stmt: fmt.Sprintf(
					"DELETE FROM ev WHERE k = %d", r.Intn(keySpace))})
			default:
				stream = append(stream, op{stmt: read(r), isRead: true})
			}
		}
		return stream
	}
	pointStream := mkStream(pointOps, seed, func(r *rand.Rand) string {
		return fmt.Sprintf("SELECT * FROM ev WHERE k = %d", r.Intn(keySpace))
	})
	rangeStream := mkStream(rangeOps, seed+1, func(r *rand.Rand) string {
		lo := r.Intn(100_000 - rangeSpan)
		return fmt.Sprintf("SELECT * FROM ev WHERE v >= %d AND v < %d", lo, lo+rangeSpan)
	})

	build := func(indexed bool) (*sql.Session, error) {
		s := sql.NewSession(engine.New(engine.WithResultCache(0)), nil)
		if _, err := s.Exec("CREATE TABLE ev (k INT, v INT, c INT)"); err != nil {
			return nil, err
		}
		if indexed {
			for _, ddl := range []string{
				"CREATE INDEX ev_k ON ev (k)",
				"CREATE INDEX ev_v ON ev (v) USING ORDERED",
			} {
				if _, err := s.Exec(ddl); err != nil {
					return nil, err
				}
			}
		}
		load := rand.New(rand.NewSource(seed + 2))
		for i := 0; i < rows; i++ {
			if _, err := s.Exec(fmt.Sprintf(
				"INSERT INTO ev VALUES (%d, %d, %d) EXPIRES AT %d",
				load.Intn(keySpace), load.Intn(100_000), load.Intn(1_000),
				3+load.Intn(40))); err != nil {
				return nil, err
			}
		}
		return s, nil
	}

	type workload struct {
		name   string
		stream []op
	}
	t := newTable("workload", "reads")
	var physical []string
	for _, wl := range []workload{
		{"point lookup (hash on k)", pointStream},
		{"range scan (ordered on v)", rangeStream},
	} {
		plain, err := build(false)
		if err != nil {
			return err
		}
		indexed, err := build(true)
		if err != nil {
			return err
		}
		explain, err := indexed.Exec("EXPLAIN " + wl.stream[0].stmt)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(explain.Msg, "\n") {
			if strings.HasPrefix(line, "physical:") {
				physical = append(physical, wl.stream[0].stmt+"\n  "+line)
			}
		}
		baseline, err := replay(plain, wl.stream, nil, true)
		if err != nil {
			return err
		}
		if _, err := replay(indexed, wl.stream, baseline, true); err != nil {
			return err
		}
		t.add(wl.name, len(baseline))
	}
	t.write(w)
	fmt.Fprintf(w, "EXPLAIN of each stream's first read on the indexed engine:\n%s", indent(strings.Join(physical, "\n")))
	fmt.Fprintln(w, "shape: probes touch only matching entries and skip expired ones inside the")
	fmt.Fprintln(w, "index, so the indexed engine returns byte-identical rows and validity stamps")
	fmt.Fprintln(w, "through every insert, delete and advance of the stream; the scan engine pays")
	fmt.Fprintln(w, "the full table on every read.")
	return nil
}
