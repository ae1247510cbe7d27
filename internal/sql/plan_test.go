package sql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation/reltest"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// benchPlan times Session.Plan of parsed statements that have no lowering
// to reuse — what the wire server does for each request — over the
// remote_reads tables: sess indexed on sid, usr without an index.
func benchPlan(b *testing.B, format func(i int) string) {
	s := NewSession(engine.New(), nil)
	if _, err := s.ExecScript(`
		CREATE TABLE sess (sid INT, uid INT, score INT);
		CREATE TABLE usr (uid INT, grp INT);
		CREATE INDEX sess_sid ON sess (sid);
		INSERT INTO sess VALUES (1, 1, 10), (2, 2, 20);
		INSERT INTO usr VALUES (1, 1), (2, 2);
	`); err != nil {
		b.Fatal(err)
	}
	stmts := make([]Statement, 256)
	for i := range stmts {
		stmt, err := Parse(format(i))
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = stmt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The four statement shapes a remote_reads client sends
// (scripts/alloc-gates.sh holds each to its own budget).

func BenchmarkPlanPoint(b *testing.B) {
	benchPlan(b, func(i int) string { return fmt.Sprintf("SELECT * FROM sess WHERE sid = %d", i) })
}

func BenchmarkPlanRange(b *testing.B) {
	benchPlan(b, func(i int) string {
		return fmt.Sprintf("SELECT * FROM sess WHERE score >= %d AND score < %d", i, i+40)
	})
}

func BenchmarkPlanJoin(b *testing.B) {
	benchPlan(b, func(i int) string {
		return fmt.Sprintf("SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = %d AND sess.score >= %d", i%25, i)
	})
}

func BenchmarkPlanExcept(b *testing.B) {
	benchPlan(b, func(i int) string {
		return fmt.Sprintf("SELECT uid FROM usr WHERE grp = %d EXCEPT SELECT uid FROM sess WHERE score >= %d AND score < %d", i%25, i, i+400)
	})
}

// randCond draws a condition over cols: a comparison with a column or a
// constant or, while depth lasts, a parenthesised AND, OR or NOT of smaller
// ones — so a WHERE nests ∧ inside ∧ and ∨ across the tables of a chain.
func randCond(rng *rand.Rand, cols []string, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%s %s %s", cols[rng.Intn(len(cols))], op, cols[rng.Intn(len(cols))])
		}
		return fmt.Sprintf("%s %s %d", cols[rng.Intn(len(cols))], op, rng.Intn(5))
	}
	sub := func() string { return randCond(rng, cols, depth-1) }
	switch rng.Intn(3) {
	case 0:
		return "(" + sub() + " AND " + sub() + ")"
	case 1:
		return "(" + sub() + " OR " + sub() + ")"
	default:
		return "NOT (" + sub() + ")"
	}
}

// randChain draws a SELECT over a left-deep chain of 3–4 of the tables
// t0…t3: each ON an equality with the chain so far, often conjoined with a
// random condition; a random WHERE; the whole row, a projection, or one
// column EXCEPT a selection of another table.
func randChain(rng *rand.Rand) string {
	tabs := rng.Perm(4)[:3+rng.Intn(2)]
	var cols []string
	colsOf := func(t int) []string { return []string{fmt.Sprintf("t%d.a", t), fmt.Sprintf("t%d.b", t)} }
	var from strings.Builder
	fmt.Fprintf(&from, "FROM t%d", tabs[0])
	cols = append(cols, colsOf(tabs[0])...)
	for _, t := range tabs[1:] {
		on := fmt.Sprintf("%s = t%d.%s", cols[rng.Intn(len(cols))], t, []string{"a", "b"}[rng.Intn(2)])
		cols = append(cols, colsOf(t)...)
		if rng.Intn(2) == 0 {
			on += " AND " + randCond(rng, cols, 2)
		}
		fmt.Fprintf(&from, " JOIN t%d ON %s", t, on)
	}
	if rng.Intn(4) > 0 {
		fmt.Fprintf(&from, " WHERE %s", randCond(rng, cols, 3))
	}
	switch rng.Intn(3) {
	case 0:
		return "SELECT * " + from.String()
	case 1:
		return fmt.Sprintf("SELECT %s, %s %s", cols[rng.Intn(len(cols))], cols[rng.Intn(len(cols))], from.String())
	default:
		other := rng.Intn(4)
		return fmt.Sprintf("SELECT %s %s EXCEPT SELECT a FROM t%d WHERE %s",
			cols[rng.Intn(len(cols))], from.String(), other, randCond(rng, colsOf(other), 2))
	}
}

// TestOptimisedChainsMatchTheLogicalPlan: over seeded left-deep chains of
// 3–4 tables of different sizes, with and without indexes, what Exec answers
// — selections pushed and renumbered, probes chosen, the chain reordered —
// is what the statement's logical plan evaluates to, row for row and texp
// for texp, at every τ (snapshot reducibility holds of both, so they agree
// on every snapshot). The cache key does not depend on the indexes.
func TestOptimisedChainsMatchTheLogicalPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	indexed, plain := NewSession(engine.New(), nil), NewSession(engine.New(), nil)
	for i := 0; i < 4; i++ {
		for _, s := range []*Session{indexed, plain} {
			mustExec(t, s, fmt.Sprintf("CREATE TABLE t%d (a INT, b INT)", i))
		}
		mustExec(t, indexed, fmt.Sprintf("CREATE INDEX t%d_a ON t%d (a)", i, i))
		mustExec(t, indexed, fmt.Sprintf("CREATE INDEX t%d_b ON t%d (b) USING ORDERED", i, i))
		for n := 1 + i*3 + rng.Intn(3); n > 0; n-- {
			row, texp := tuple.Ints(rng.Int63n(5), rng.Int63n(5)), xtime.Time(1+rng.Intn(20))
			if rng.Intn(6) == 0 {
				texp = xtime.Infinity
			}
			for _, s := range []*Session{indexed, plain} {
				if err := s.eng.Insert(fmt.Sprintf("t%d", i), row, texp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var queries []string
	for len(queries) < 200 {
		queries = append(queries, randChain(rng))
	}
	reordered := 0
	for _, tau := range []xtime.Time{0, 3, 7, 12} {
		for _, s := range []*Session{indexed, plain} {
			if err := s.eng.Advance(tau); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			var key string
			for _, s := range []*Session{indexed, plain} {
				p := freshPlan(t, s, q)
				if key == "" {
					key = p.Key
				} else if p.Key != key {
					t.Fatalf("%s: key %s with indexes, %s without", q, key, p.Key)
				}
				for _, c := range p.Choices {
					if c.chain != nil {
						reordered++
					}
				}
				res, err := s.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				want, err := algebra.EvalStream(p.Logical, tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reltest.EqualAt(res.Rel, want, tau) {
					t.Fatalf("%s at %v:\nphysical %s\n%s\nlogical %s\n%s", q, tau,
						p.Physical, res.Rel.Render(tau), p.Logical, want.Render(tau))
				}
			}
		}
	}
	if reordered == 0 {
		t.Fatal("no chain was reordered: the test does not reach reorderChain")
	}
}

// TestUnknownJoinPredicateIsNotReordered: a chain whose join predicate holds
// a type the toolkit cannot see into keeps the order it was written in.
func TestUnknownJoinPredicateIsNotReordered(t *testing.T) {
	s := NewSession(engine.New(), nil)
	for i, n := range []int{20, 2, 8} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE t%d (a INT, b INT)", i))
		for r := 0; r < n; r++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t%d VALUES (%d, %d)", i, r%4, r%3))
		}
	}
	p := freshPlan(t, s, "SELECT * FROM t0 JOIN t1 ON t0.a = t1.a JOIN t2 ON t1.b = t2.b")
	if len(p.Choices) != 1 || p.Choices[0].chain == nil {
		t.Fatalf("the known chain is not reordered: %s", p.Physical)
	}
	outer := p.Logical.(*algebra.Join)
	outer = &algebra.Join{Pred: algebra.And{Preds: []algebra.Predicate{outer.Pred, oddA{}}}, Left: outer.Left, Right: outer.Right}
	phys, choices := s.optimize(algebra.PushDownSelections(outer))
	if len(choices) != 0 || !strings.HasPrefix(phys.String(), "((t0 ⋈") {
		t.Fatalf("a chain with an unknown predicate was reordered: %s", phys)
	}
	got, err := algebra.EvalStream(phys, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.EvalStream(outer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reltest.EqualAt(got, want, 0) || got.CountAt(0) == 0 {
		t.Fatalf("%s answers\n%s\nwant\n%s", phys, got.Render(0), want.Render(0))
	}
}

// oddA holds when column 1 is odd: a predicate type outside the toolkit.
type oddA struct{}

func (oddA) Holds(t tuple.Tuple) bool { v, _ := t[0].Int64(); return v%2 == 1 }
func (oddA) String() string           { return "odd($1)" }
