// Quickstart: the paper's Figure 1–3 walk-through in a dozen statements —
// tables whose tuples expire, views that maintain themselves, and the
// moment a non-monotonic view changes: the one the engine stored ahead of
// time, and the bare one that has to be recomputed.
package main

import (
	"fmt"
	"os"

	"expdb"
)

func main() {
	db := expdb.OpenWithNotify(os.Stdout)

	// The example database of the paper (§2.1): user-interest profiles
	// whose expiration times say how long each profile stays in effect.
	db.MustExec(`CREATE TABLE pol (uid INT, deg INT)`)
	db.MustExec(`CREATE TABLE el  (uid INT, deg INT)`)
	db.MustExec(`INSERT INTO pol VALUES (1, 25) EXPIRES AT 10`)
	db.MustExec(`INSERT INTO pol VALUES (2, 25) EXPIRES AT 15`)
	db.MustExec(`INSERT INTO pol VALUES (3, 35) EXPIRES AT 10`)
	db.MustExec(`INSERT INTO el VALUES (1, 75) EXPIRES AT 5`)
	db.MustExec(`INSERT INTO el VALUES (2, 85) EXPIRES AT 3`)
	db.MustExec(`INSERT INTO el VALUES (4, 90) EXPIRES AT 2`)

	// A monotonic view: valid forever, maintained by expiration alone
	// (Theorem 1).
	db.MustExec(`CREATE MATERIALIZED VIEW matches AS
	             SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid`)

	// A non-monotonic view: the histogram of Figure 3(a), whose count
	// changes at time 10. The engine knows that, and what it changes to:
	// the view stores ⟨25, 1⟩ when it is made and shows it from 10 on.
	db.MustExec(`CREATE MATERIALIZED VIEW hist AS
	             SELECT deg, COUNT(*) FROM pol GROUP BY deg`)
	// The same view in the paper's bare §2 model: valid until texp(e) = 10.
	db.MustExec(`CREATE MATERIALIZED VIEW hist_bare WITH (mode=texp) AS
	             SELECT deg, COUNT(*) FROM pol GROUP BY deg`)

	// EXPLAIN surfaces the paper's machinery: monotonicity, texp(e) and
	// the Schrödinger validity intervals.
	fmt.Println("-- EXPLAIN the Figure 3(b) difference:")
	fmt.Println(db.MustExec(`EXPLAIN SELECT uid FROM pol EXCEPT SELECT uid FROM el`).Msg)
	fmt.Println()

	for _, tick := range []expdb.Time{0, 3, 5, 10} {
		if tick > 0 {
			db.MustExec(fmt.Sprintf("ADVANCE TO %d", tick))
		}
		fmt.Printf("-- time %s --\n", db.Now())
		res := db.MustExec(`SELECT * FROM matches`)
		fmt.Printf("matches (%d rows):\n%s", res.Rel.CountAt(tick), res.Rel.Render(tick))
		res = db.MustExec(`SELECT * FROM hist`)
		fmt.Printf("hist (%d rows), valid %s:\n%s\n", res.Rel.CountAt(tick), res.Validity, res.Rel.Render(tick))
		db.MustExec(`SELECT * FROM hist_bare`)
	}

	// The views did their own bookkeeping: matches never recomputed, hist
	// applied the row it had stored for time 10, and hist_bare recomputed
	// exactly once — at time 10, as the paper derives.
	for _, name := range []string{"matches", "hist", "hist_bare"} {
		v, err := db.Engine().Catalog().View(name)
		if err != nil {
			panic(err)
		}
		s := v.Stats()
		fmt.Printf("view %-9s reads=%d servedFromMaterialisation=%d birthsApplied=%d recomputations=%d\n",
			name, s.Reads, s.ServedFromMat, s.PatchesApplied, s.Recomputations)
	}
}
