package algebra

import (
	"cmp"
	"slices"

	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Births is the future of a materialisation, absent writes: the rows it does
// not show yet but will, each with the instant it is born and the expiration
// time it is born with. For a difference they are the critical rows of
// Theorem 3; for a GROUP BY, the later states of each partition (§3.4.1): a
// state is born at the change point that expires its predecessor, until the
// partition empties. A materialisation that applies them as they fall due
// never invalidates before its arguments do. Births are only consumed,
// earliest first, so both forms are stored latest first: consuming shortens
// a slice, and a mostly consumed array is given back (shrink).
type Births struct {
	rows   []CriticalRow // whole rows, latest (InS, Tuple) first
	chains []chain       // one per partition that changes before it empties
	aggs   []int         // the columns of a chain's tuple that its states overwrite
	next   xtime.Time    // when the earliest pending birth falls due (settle)
	since  xtime.Time    // when the latest birth consumed so far was born, 0 before the first
}

// chain is the future of one partition. Its states differ in the aggregate
// columns only, so it keeps one tuple, the change points and the values, not
// a row per state: the birth at at[i], i ≥ 1, carries vals[(i−1)·n : i·n] in
// the n columns Births.aggs names and expires at at[i−1]; at[0] is when the
// partition empties.
type chain struct {
	tuple tuple.Tuple
	at    []xtime.Time
	vals  []value.Value
}

// byBirth orders rows by (InS, Tuple): the order their births fall due, made
// total so that a budget cuts the same rows every time.
func byBirth(a, b CriticalRow) int {
	if c := cmp.Compare(a.InS, b.InS); c != 0 {
		return c
	}
	return a.Tuple.Compare(b.Tuple)
}

// BirthsOf takes rows, in any order, as births; it keeps the slice.
func BirthsOf(rows []CriticalRow) Births {
	slices.SortFunc(rows, func(a, b CriticalRow) int { return byBirth(b, a) })
	b := Births{rows: rows}
	b.settle()
	return b
}

// addChain appends the future of partition p, whose row in the result is t
// and whose aggregate columns show the functions funcs. Every function of the
// node sets change points, shown or not: a recomputation's texp follows all.
func (b *Births) addChain(p *partition, t tuple.Tuple, funcs []int) {
	if len(p.runs) < 2 {
		return // one slice: the partition empties without ever changing
	}
	c := chain{tuple: t, at: make([]xtime.Time, 1, len(p.runs)), vals: make([]value.Value, 0, (len(p.runs)-1)*len(funcs))}
	c.at[0] = p.last()
	nf := len(p.vals) / len(p.runs) // functions of the node
	for k := len(p.runs) - 2; k >= 0; k-- {
		changed := false
		for i := 0; i < nf && !changed; i++ {
			changed = !p.suffix(i)[k+1].Equal(p.suffix(i)[k])
		}
		if changed {
			c.at = append(c.at, p.rows[p.runs[k]].Texp)
			for _, f := range funcs {
				c.vals = append(c.vals, p.suffix(f)[k+1])
			}
		}
	}
	if len(c.at) > 1 {
		c.at, c.vals = slices.Clip(c.at), slices.Clip(c.vals)
		b.chains = append(b.chains, c)
	}
}

// Len returns the number of births pending.
func (b *Births) Len() int {
	n := len(b.rows)
	for _, c := range b.chains {
		n += len(c.at) - 1
	}
	return n
}

// Next returns when the earliest pending birth falls due, ∞ without one:
// rows these births belong to are the answer until then.
func (b *Births) Next() xtime.Time {
	if len(b.rows) == 0 && len(b.chains) == 0 {
		return xtime.Infinity // the zero Births too
	}
	return b.next
}

// settle looks the earliest pending birth up, once per change of b: Next is
// asked on every read.
func (b *Births) settle() {
	b.next = xtime.Infinity
	if n := len(b.rows); n > 0 {
		b.next = b.rows[n-1].InS
	}
	for _, c := range b.chains {
		b.next = xtime.Min(b.next, c.at[len(c.at)-1])
	}
}

// Rows returns every pending birth as a whole row, in (InS, Tuple) order.
func (b *Births) Rows() []CriticalRow {
	out := slices.Clone(b.rows)
	for _, c := range b.chains {
		for i := len(c.at) - 1; i > 0; i-- {
			out = append(out, CriticalRow{Tuple: b.state(c, i), InS: c.at[i], InR: c.at[i-1]})
		}
	}
	slices.SortFunc(out, byBirth)
	return out
}

// state is the tuple of the birth at c.at[i].
func (b *Births) state(c chain, i int) tuple.Tuple {
	t := c.tuple.Clone()
	for j, col := range b.aggs {
		t[col] = c.vals[(i-1)*len(b.aggs)+j]
	}
	return t
}

// apply brings rel, the materialisation these births belong to, to tau: every
// birth due by then is consumed, and inserted if still alive. When one was
// due the result is a private copy of rel's rows alive at tau — the copy a
// shared row map is owed before a write anyway, made without the dead rows:
// a materialisation that is never recomputed does not grow — otherwise rel
// itself. The second result is the number of births consumed.
func (b *Births) apply(rel *relation.Relation, tau xtime.Time) (*relation.Relation, int) {
	if tau < b.Next() {
		return rel, 0
	}
	pending := b.Len()
	rel = rel.Snapshot(tau)
	n := len(b.rows)
	for ; n > 0 && b.rows[n-1].InS <= tau; n-- {
		if h := b.rows[n-1]; h.InR > tau {
			rel.InsertOwnedRow(relation.Row{Tuple: h.Tuple, Texp: h.InR})
		}
		b.since = b.rows[n-1].InS
	}
	clear(b.rows[n:])
	b.rows = shrink(b.rows[:n])
	live := b.chains[:0]
	for _, c := range b.chains {
		n := len(c.at)
		for n > 0 && c.at[n-1] <= tau {
			n--
		}
		if n < len(c.at) { // of the states born by tau only the latest can be alive
			b.since = xtime.Max(b.since, c.at[max(n, 1)])
			if n > 0 {
				rel.InsertOwnedRow(relation.Row{Tuple: b.state(c, n), Texp: c.at[n-1]})
			}
			c.at, c.vals = shrink(c.at[:n]), shrink(c.vals[:max(n-1, 0)*len(b.aggs)])
		}
		if n > 1 {
			live = append(live, c)
		}
	}
	clear(b.chains[len(live):])
	b.chains = shrink(live)
	b.settle()
	return rel, pending - b.Len()
}

// shrink moves s to an array of its own size once it fills at most half of
// the one it has: consumed births are released, not kept behind the cursor
// for as long as the materialisation lives.
func shrink[T any](s []T) []T {
	if len(s) <= cap(s)/2 {
		return slices.Clone(s)
	}
	return s
}
