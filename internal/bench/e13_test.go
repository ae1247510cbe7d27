package bench

import (
	"fmt"
	"io"
	"math/rand"

	"expdb/internal/engine"
	"expdb/internal/sql"
)

// op is one statement of a replayed stream; the answers of its reads are
// compared between engines.
type op struct {
	stmt   string
	isRead bool
}

// replay runs stream on s and returns each read's answer: its rows, and
// its validity stamp when withValidity is set. Given check, the answers
// an earlier replay on another engine returned, it fails at the first
// read whose answer differs.
func replay(s *sql.Session, stream []op, check []string, withValidity bool) ([]string, error) {
	answers := make([]string, 0, len(stream))
	for i, o := range stream {
		res, err := s.Exec(o.stmt)
		if err != nil {
			return nil, fmt.Errorf("op %d %q: %w", i, o.stmt, err)
		}
		if !o.isRead {
			continue
		}
		a := res.Rel.Render(res.At)
		if withValidity {
			a += "|" + res.Validity.String()
		}
		if check != nil && a != check[len(answers)] {
			return nil, fmt.Errorf("op %d %q: answer diverged from the reference engine:\n%s", i, o.stmt, a)
		}
		answers = append(answers, a)
	}
	return answers, nil
}

// runE13 counts what the validity-interval result cache does on the
// workload it exists for: a read-heavy dashboard where a zipfian handful
// of aggregate queries is asked over and over while the underlying table
// keeps slowly changing. The same deterministic operation stream — reads,
// occasional inserts, occasional clock advances — is replayed against two
// engines that differ only in the cache switch, and every answer is
// checked to match between them: a hit is free only because the validity
// interval proves the cached answer is still the correct one.
func runE13(w io.Writer) error {
	const (
		rows     = 10_000
		sensors  = 64
		variants = 64
		ops      = 2_500
		seed     = 20060613
	)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.5, 1.0, variants-1)

	// The dashboard's query repertoire: per-sensor and per-band
	// aggregates. Zipf-ranked, so a few of them take almost all traffic.
	queries := make([]string, variants)
	for i := range queries {
		switch i % 4 {
		case 0:
			queries[i] = fmt.Sprintf("SELECT COUNT(*), SUM(val) FROM readings WHERE sensor = %d", i%sensors)
		case 1:
			queries[i] = fmt.Sprintf("SELECT MIN(val), MAX(val) FROM readings WHERE sensor = %d", i%sensors)
		case 2:
			queries[i] = fmt.Sprintf("SELECT sensor, COUNT(*) FROM readings WHERE val < %d GROUP BY sensor", 200+10*i)
		case 3:
			queries[i] = fmt.Sprintf("SELECT sensor, AVG(val) FROM readings WHERE val > %d GROUP BY sensor", 5*i)
		}
	}

	// One pre-generated stream so both configurations replay bit-identical
	// work: mostly zipfian reads, an insert roughly every 800th operation,
	// a one-tick advance roughly every 500th.
	stream := make([]op, 0, ops)
	now := 0
	for i := 0; i < ops; i++ {
		switch {
		case i%500 == 499:
			now++
			stream = append(stream, op{stmt: fmt.Sprintf("ADVANCE TO %d", now)})
		case i%800 == 399:
			stream = append(stream, op{stmt: fmt.Sprintf(
				"INSERT INTO readings VALUES (%d, %d) EXPIRES AT %d",
				rng.Intn(sensors), rng.Intn(1000), now+5_000+rng.Intn(5_000))})
		default:
			stream = append(stream, op{stmt: queries[zipf.Uint64()], isRead: true})
		}
	}

	build := func(e *engine.Engine) (*sql.Session, error) {
		s := sql.NewSession(e, nil)
		if _, err := s.Exec("CREATE TABLE readings (sensor INT, val INT)"); err != nil {
			return nil, err
		}
		load := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < rows; i++ {
			if _, err := s.Exec(fmt.Sprintf(
				"INSERT INTO readings VALUES (%d, %d) EXPIRES AT %d",
				load.Intn(sensors), load.Intn(1000), 5_000+load.Intn(10_000))); err != nil {
				return nil, err
			}
		}
		return s, nil
	}

	cachedEng := engine.New()
	cached, err := build(cachedEng)
	if err != nil {
		return err
	}
	plain, err := build(engine.New(engine.WithResultCache(0)))
	if err != nil {
		return err
	}

	baseline, err := replay(plain, stream, nil, false)
	if err != nil {
		return err
	}
	if _, err := replay(cached, stream, baseline, false); err != nil {
		return err
	}

	m, err := cachedEng.ResultCacheStats()
	if err != nil {
		return err
	}
	reads := len(baseline)
	t := newTable("configuration", "reads", "hits", "misses", "invalidations", "revalidations")
	t.add("cache off", reads, "-", "-", "-", "-")
	t.add("cache on", reads, m.Hits, m.Misses, m.Invalidations+m.EpochInvalidations, m.Revalidations)
	t.write(w)
	fmt.Fprintln(w, "shape: the zipfian head is served from the validity-interval cache with zero")
	fmt.Fprintln(w, "re-evaluation; an insert re-misses only the live entries whose leaf predicate")
	fmt.Fprintln(w, "selects its tuple (a revalidation is a hit that outlived a write it could not")
	fmt.Fprintln(w, "see), and every answer is verified identical to the uncached engine.")
	return nil
}
