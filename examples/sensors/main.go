// Sensors: monitoring data with a-priori lifetimes — the intro's
// "temperature or location samples" use case. Every reading is valid for
// a fixed window; aggregate views over the *currently valid* readings
// maintain themselves, and the Schrödinger interval semantics answers
// reads even when a difference view is momentarily invalid.
package main

import (
	"fmt"

	"expdb"
	"expdb/algebra"
	"expdb/internal/view"
	"expdb/internal/workload"
)

func main() {
	db := expdb.Open()
	db.MustExec(`CREATE TABLE readings (sensor INT, temp INT)`)

	// 20 sensors reporting for 10 rounds; each reading valid for 40
	// ticks.
	samples := workload.Samples(20, 10, 25, 40, 3)
	horizon := expdb.Time(0)
	pending := samples
	fmt.Printf("replaying %d sensor readings\n", len(samples))

	// Live aggregates over valid readings only: expired samples drop out
	// of MIN/MAX/AVG automatically.
	db.MustExec(`CREATE MATERIALIZED VIEW climate AS
	             SELECT sensor, MIN(temp), MAX(temp), AVG(temp) FROM readings GROUP BY sensor`)

	// An alerting view through the algebra API: sensors whose current
	// maximum exceeds a threshold, answered with interval validity and
	// moved-backward reads (slightly stale answers beat recomputation on
	// a constrained gateway, §3.3).
	base, err := db.Engine().Base("readings")
	if err != nil {
		panic(err)
	}
	hot, err := algebra.GroupBy([]int{0},
		[]algebra.AggFunc{{Kind: algebra.AggMax, Col: 1}},
		algebra.PolicyNeutral, base)
	if err != nil {
		panic(err)
	}
	hotSel, err := algebra.NewSelect(algebra.ColConst{Col: 1, Op: algebra.OpGe, Const: expdb.Int(30)}, hot)
	if err != nil {
		panic(err)
	}
	alerts, err := db.CreateView("alerts", hotSel,
		expdb.WithIntervalValidity(), expdb.WithRecoverBackward())
	if err != nil {
		panic(err)
	}

	for t := expdb.Time(0); t <= 300; t += 10 {
		if err := db.Advance(t); err != nil {
			panic(err)
		}
		// Feed readings whose timestamp has arrived.
		rest := pending[:0]
		for _, s := range pending {
			if s.At <= t {
				texp := s.At + s.TTL
				if texp <= t {
					continue // arrived already stale
				}
				if err := db.Insert("readings", expdb.Ints(s.Sensor, s.Value), texp); err != nil {
					panic(err)
				}
				// A new reading is an update to the base data: refresh
				// dependent materialisations (the paper's no-update
				// assumption ends where inserts begin).
				db.MustExec("REFRESH VIEW climate")
				if err := alerts.Materialize(t); err != nil {
					panic(err)
				}
				if texp > horizon {
					horizon = texp
				}
			} else {
				rest = append(rest, s)
			}
		}
		pending = rest
		if t%100 == 0 {
			res := db.MustExec(`SELECT * FROM climate`)
			fmt.Printf("\n-- climate view at t=%s (%d sensors with valid data):\n%s",
				t, res.Rel.CountAt(t), res.Rel.Render(t))
			rel, info, err := alerts.Read(t)
			if err != nil {
				panic(err)
			}
			fmt.Printf("alerts (%s, as of t=%s): %d sensors ≥ 30°\n",
				info.Source, info.At, rel.CountAt(info.At))
		}
	}

	s := alerts.Stats()
	fmt.Printf("\nalerts view: reads=%d fromMat=%d moved=%d recomputed=%d\n",
		s.Reads, s.ServedFromMat, s.Moved, s.Recomputations)
	_ = view.ModeInterval // documents which mode the alerts view runs in
	fmt.Printf("all readings expired by t=%s; final climate view is empty: %v\n",
		horizon, db.MustExec(`SELECT * FROM climate`).Rel.CountAt(db.Now()) == 0)
}
