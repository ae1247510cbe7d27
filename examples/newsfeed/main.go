// Newsfeed: the paper's §2.1 personalised news service at scale — user
// profiles with topic-dependent lifetimes, a join view matching users
// across topics, a histogram view for editorial dashboards, and a
// difference view ("politics readers not following the election") kept
// alive forever by Theorem 3 patching.
package main

import (
	"fmt"

	"expdb"
	"expdb/algebra"
	"expdb/internal/relation"
	"expdb/internal/workload"
)

func main() {
	db := expdb.Open()
	db.MustExec(`CREATE TABLE pol (uid INT, deg INT)`)
	db.MustExec(`CREATE TABLE el  (uid INT, deg INT)`)

	// Generate profiles: politics interests live long (a core topic),
	// election interests are short-term — exactly the asymmetry the
	// paper's example encodes.
	pol, el := workload.NewsService(2000, 1)
	loadTable(db, "pol", pol)
	loadTable(db, "el", el)
	fmt.Printf("loaded %d politics and %d election profiles\n",
		pol.CountAt(0), el.CountAt(0))

	// Dashboard views.
	db.MustExec(`CREATE MATERIALIZED VIEW interest_histogram AS
	             SELECT deg, COUNT(*) FROM pol GROUP BY deg`)
	db.MustExec(`CREATE MATERIALIZED VIEW engaged AS
	             SELECT pol.uid FROM pol JOIN el ON pol.uid = el.uid WHERE el.deg >= 80`)
	db.MustExec(`CREATE MATERIALIZED VIEW pol_only WITH (patching) AS
	             SELECT uid FROM pol EXCEPT SELECT uid FROM el`)

	// The same queries through the algebra API, with the §3.1 rewrite.
	polBase, err := db.Engine().Base("pol")
	if err != nil {
		panic(err)
	}
	elBase, err := db.Engine().Base("el")
	if err != nil {
		panic(err)
	}
	p1, err := algebra.NewProject([]int{0}, polBase)
	if err != nil {
		panic(err)
	}
	p2, err := algebra.NewProject([]int{0}, elBase)
	if err != nil {
		panic(err)
	}
	d, err := algebra.NewDiff(p1, p2)
	if err != nil {
		panic(err)
	}
	sel, err := algebra.NewSelect(algebra.ColConst{Col: 0, Op: algebra.OpLt, Const: expdb.Int(100)}, d)
	if err != nil {
		panic(err)
	}
	// Compare invalidation times for a materialisation computed at time 0
	// (both tables still fully populated): the pushed-down plan's critical
	// set contains only the selected users, so it invalidates later.
	rewritten := algebra.PushDownSelections(sel)
	t1, _ := algebra.ExprTexp(sel, 0)
	t2, _ := algebra.ExprTexp(rewritten, 0)
	fmt.Printf("\nrewrite (§3.1), materialised at 0: texp(σ(pol−el)) = %s ≤ texp(σ(pol)−σ(el)) = %s\n", t1, t2)

	// Run the service: profiles expire tick by tick; views follow along.
	for _, tick := range []expdb.Time{10, 30, 60, 120, 200} {
		db.MustExec(fmt.Sprintf("ADVANCE TO %d", tick))
		engaged := db.MustExec(`SELECT * FROM engaged`).Rel.CountAt(tick)
		polOnly := db.MustExec(`SELECT * FROM pol_only`).Rel.CountAt(tick)
		topics := db.MustExec(`SELECT * FROM interest_histogram`).Rel.CountAt(tick)
		fmt.Printf("t=%-4s engaged=%-5d politics-only=%-5d live-topics=%-4d\n",
			db.Now(), engaged, polOnly, topics)
	}

	// Maintenance report: the monotonic join never recomputes (Theorem 1);
	// neither do the difference (Theorem 3) and the histogram (§3.4.1),
	// which stored the rows they would show next when they were made and
	// apply them as they fall due.
	fmt.Println("\nview maintenance:")
	for _, name := range []string{"interest_histogram", "engaged", "pol_only"} {
		v, err := db.Engine().Catalog().View(name)
		if err != nil {
			panic(err)
		}
		s := v.Stats()
		fmt.Printf("  %-20s reads=%-3d fromMat=%-3d recomputed=%-3d patches=%d\n",
			name, s.Reads, s.ServedFromMat, s.Recomputations, s.PatchesApplied)
	}

}

func loadTable(db *expdb.DB, name string, src *relation.Relation) {
	src.All(func(row relation.Row) {
		if err := db.Insert(name, row.Tuple, row.Texp); err != nil {
			panic(err)
		}
	})
}
