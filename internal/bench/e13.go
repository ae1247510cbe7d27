package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"expdb/internal/engine"
	"expdb/internal/sql"
)

// RunE13 measures the validity-interval result cache on the workload it
// exists for: a read-heavy dashboard where a zipfian handful of aggregate
// queries is asked over and over while the underlying table keeps slowly
// changing. The same deterministic operation stream — reads, occasional
// inserts, occasional clock advances — is replayed against two engines
// that differ only in the cache switch, and every answer is checked to
// match between them: the speedup is free only because the validity
// interval proves the cached answer is still the correct one.
func RunE13(w io.Writer) error {
	const (
		rows     = 10_000
		sensors  = 64
		variants = 64
		ops      = 2_500
		seed     = 20060613
	)

	type op struct {
		stmt   string
		isRead bool
	}
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

	replay := func(s *sql.Session, check []string) ([]string, time.Duration, error) {
		answers := make([]string, 0, ops)
		start := time.Now()
		for i, o := range stream {
			res, err := s.Exec(o.stmt)
			if err != nil {
				return nil, 0, fmt.Errorf("op %d %q: %w", i, o.stmt, err)
			}
			if !o.isRead {
				continue
			}
			a := res.Rel.Render(res.At)
			if check != nil && a != check[len(answers)] {
				return nil, 0, fmt.Errorf("op %d %q: cached answer diverged from uncached", i, o.stmt)
			}
			answers = append(answers, a)
		}
		return answers, time.Since(start), nil
	}

	baseline, plainWall, err := replay(plain, nil)
	if err != nil {
		return err
	}
	_, cachedWall, err := replay(cached, baseline)
	if err != nil {
		return err
	}

	m, err := cachedEng.ResultCacheStats()
	if err != nil {
		return err
	}
	reads := len(baseline)
	speedup := float64(plainWall) / float64(cachedWall)

	t := newTable("configuration", "reads", "hits", "misses", "invalidations", "wall time", "speedup")
	t.add("cache off", reads, "-", "-", "-", plainWall.Round(time.Millisecond), "1.0x")
	t.add("cache on", reads, m.Hits, m.Misses,
		m.Invalidations+m.EpochInvalidations, cachedWall.Round(time.Millisecond),
		fmt.Sprintf("%.1fx", speedup))
	t.write(w)
	fmt.Fprintln(w, "shape: the zipfian head is served from the validity-interval cache with zero")
	fmt.Fprintln(w, "re-evaluation; an insert re-misses only the live entries whose leaf predicate")
	fmt.Fprintf(w, "selects its tuple (%d hits outlived a write they could not see), every answer\n", m.Revalidations)
	fmt.Fprintln(w, "is verified identical to the uncached engine.")
	if hitRate := float64(m.Hits) / float64(reads); hitRate < 0.5 {
		return fmt.Errorf("e13: hit rate %.2f too low for a zipfian dashboard", hitRate)
	}
	if speedup < 5 {
		return fmt.Errorf("e13: cache-on speedup %.1fx, want >= 5x", speedup)
	}
	return nil
}
