package workload

import (
	"testing"

	"expdb/internal/relation"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

func TestProfileTableRespectsParameters(t *testing.T) {
	p := Profile{Users: 1000, Degrees: 10, MinLife: 5, MaxLife: 20, Density: 0.5, Seed: 1}
	r := p.Table(100)
	n := r.CountAt(0)
	if n < 350 || n > 650 {
		t.Fatalf("density 0.5 over 1000 users gave %d tuples", n)
	}
	r.All(func(row relation.Row) {
		if row.Texp < 105 || row.Texp > 120 {
			t.Fatalf("texp %v outside [105, 120]", row.Texp)
		}
		deg := row.Tuple[1].AsInt()
		if deg < 0 || deg >= 10 {
			t.Fatalf("degree %d outside domain", deg)
		}
	})
}

func TestProfileInfiniteFraction(t *testing.T) {
	p := Profile{Users: 2000, Degrees: 5, MinLife: 1, MaxLife: 2, Density: 1, Seed: 2, Infinite: 0.3}
	r := p.Table(0)
	inf := 0
	r.All(func(row relation.Row) {
		if row.Texp == xtime.Infinity {
			inf++
		}
	})
	frac := float64(inf) / float64(r.Len())
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("infinite fraction = %v, want ≈ 0.3", frac)
	}
}

func TestProfileDeterministicPerSeed(t *testing.T) {
	a := Profile{Users: 100, Degrees: 10, MinLife: 1, MaxLife: 5, Density: 0.8, Seed: 7}.Table(0)
	b := Profile{Users: 100, Degrees: 10, MinLife: 1, MaxLife: 5, Density: 0.8, Seed: 7}.Table(0)
	if !reltest.EqualAt(a, b, -1) {
		t.Fatal("same seed must generate identical tables")
	}
	c := Profile{Users: 100, Degrees: 10, MinLife: 1, MaxLife: 5, Density: 0.8, Seed: 8}.Table(0)
	if reltest.EqualAt(a, c, -1) {
		t.Fatal("different seeds should differ")
	}
}

func TestNewsServiceOverlap(t *testing.T) {
	pol, el := NewsService(500, 42)
	// The scenario needs users in both tables for joins and differences.
	overlap := 0
	el.All(func(row relation.Row) {
		uid := row.Tuple[0]
		pol.All(func(prow relation.Row) {
			if prow.Tuple[0].Equal(uid) {
				overlap++
			}
		})
	})
	if overlap < 50 {
		t.Fatalf("only %d overlapping users", overlap)
	}
}

func TestSessionsMonotoneStarts(t *testing.T) {
	ss := Sessions(200, 5, 10, 50, 1)
	if len(ss) != 200 {
		t.Fatalf("n = %d", len(ss))
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].Start <= ss[i-1].Start {
			t.Fatal("session starts must strictly increase")
		}
	}
	for _, s := range ss {
		if s.TTL < 10 || s.TTL > 50 {
			t.Fatalf("TTL %v outside bounds", s.TTL)
		}
	}
}

func TestSamplesAndLoad(t *testing.T) {
	samples := Samples(10, 5, 20, 30, 3)
	if len(samples) != 50 {
		t.Fatalf("samples = %d", len(samples))
	}
	rel := relation.New(tuple.IntCols("sensor", "value"))
	horizon := Load(rel, samples)
	if horizon <= 0 {
		t.Fatal("horizon not set")
	}
	if rel.CountAt(horizon) != 0 {
		t.Fatal("all samples must be expired at the horizon")
	}
	if rel.CountAt(0) == 0 {
		t.Fatal("no samples alive at 0")
	}
}
