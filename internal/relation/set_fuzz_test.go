package relation_test

import (
	"fmt"
	"math"
	"testing"

	"expdb/internal/index"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// setValues are the values a FuzzSetMatchesMap tuple is made of: the ones
// whose set keys are easy to get wrong — NaN, ±0, an INT equal to a FLOAT,
// INTs beyond 2⁵³ that float64 cannot tell apart, NULL, strings.
var setValues = []value.Value{
	value.Float(math.NaN()), value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0),
	value.Int(1), value.Float(1), value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53),
	value.Null, value.String_(""), value.String_("a"),
}

// setOracle is what a relation handle must show: its rows by Tuple.Key,
// judged visible above the handle's floor.
type setOracle struct {
	rows  map[string]relation.Row
	floor xtime.Time
}

// clone is what a copy of the handle shows: the rows alive past below, and
// a floor.
func (o setOracle) clone(below, floor xtime.Time) setOracle {
	c := setOracle{rows: make(map[string]relation.Row, len(o.rows)), floor: floor}
	for k, row := range o.rows {
		if row.Texp > below {
			c.rows[k] = row
		}
	}
	return c
}

func (o setOracle) insert(t tuple.Tuple, texp xtime.Time) {
	if old, ok := o.rows[t.Key()]; !ok || texp > old.Texp {
		o.rows[t.Key()] = relation.Row{Tuple: t, Texp: texp}
	}
}

// check fails unless r shows exactly o: every tuple of domain probed by
// tuple and by key, the count, the rows alive at 0 and the store's shape.
func (o setOracle) check(t *testing.T, what string, r *relation.Relation, domain []tuple.Tuple) {
	t.Helper()
	if msg := r.ShapeError(); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
	visible := 0
	for _, row := range o.rows {
		if row.Texp > o.floor {
			visible++
		}
	}
	if n, alive := r.Len(), r.CountAt(0); n != visible || alive != visible {
		t.Fatalf("%s: Len %d, CountAt(0) %d, the map holds %d", what, n, alive, visible)
	}
	for _, tp := range domain {
		want, ok := o.rows[tp.Key()]
		ok = ok && want.Texp > o.floor
		texp, got := r.Texp(tp)
		byKey, gotByKey := r.TexpKey(tp.Key())
		if got != ok || gotByKey != ok || ok && (texp != want.Texp || byKey != want.Texp) {
			t.Fatalf("%s: %v is @%v (%v), by key @%v (%v); the map says @%v (%v)", what, tp, texp, got, byKey, gotByKey, want.Texp, ok)
		}
	}
}

// FuzzSetMatchesMap holds a relation's set semantics to a map over
// Tuple.Key. The first byte picks the arity (0–2) and whether the relation
// is a base table's (texp heap, then a hash index attached after some rows);
// then each op byte, with the bytes after it, is an insert, an owned
// insert, a DeleteKey, a RemoveExpired, a Snapshot, a SnapshotShared written
// through one handle (which detaches it), or a drain of 1 100 rows that
// makes the store compact. After every step the relation must show what
// the map holds.
func FuzzSetMatchesMap(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x05, 0x00, 0x02, 0x06, 0x01, 0x09, 0x02, 0x01, 0x00, 0x03, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		head := next()
		arity, base := head%3, head&4 != 0
		draw := func() tuple.Tuple {
			tp := make(tuple.Tuple, arity)
			for i := range tp {
				tp[i] = setValues[next()%len(setValues)]
			}
			return tp
		}
		domain := []tuple.Tuple{{}}
		for len(domain[0]) < arity {
			var grown []tuple.Tuple
			for _, tp := range domain {
				for _, v := range setValues {
					grown = append(grown, append(tp.Clone(), v))
				}
			}
			domain = grown
		}
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = string(rune('a' + i))
		}
		r := relation.New(tuple.IntCols(cols...))
		if base {
			r.EnableTexpIndex()
		}
		o := setOracle{rows: map[string]relation.Row{}}
		for step := 0; len(data) > 0; step++ {
			what := fmt.Sprintf("step %d", step)
			tau := xtime.Time(next() % 20)
			switch op := next() % 8; op {
			case 0, 1: // insert or extend, cloned or owned
				tp, texp := draw(), 1+xtime.Time(next()%20)
				if op == 0 {
					r.Insert(tp, texp)
				} else {
					r.InsertOwnedRow(relation.Row{Tuple: tp, Texp: texp})
				}
				o.insert(tp, texp)
			case 2:
				tp := draw()
				row, ok := o.rows[tp.Key()]
				ok = ok && row.Texp > o.floor
				if got := r.DeleteKey(tp.Key()); got != ok {
					t.Fatalf("%s: DeleteKey(%v) = %v, the map says %v", what, tp, got, ok)
				}
				if ok {
					delete(o.rows, tp.Key())
				}
			case 3:
				r.RemoveExpired(tau)
				for k, row := range o.rows {
					if row.Texp <= tau {
						delete(o.rows, k)
					}
				}
			case 4:
				r, o = r.Snapshot(tau), o.clone(max(tau, o.floor), 0)
			case 5, 6: // freeze, write through one handle, check the other
				at := max(tau, o.floor)
				s, so := r.SnapshotShared(tau), o.clone(at, at)
				if op == 6 {
					r, o, s, so = s, so, r, o
				}
				tp, texp := draw(), 1+xtime.Time(next()%20)
				r.Insert(tp, texp)
				o.insert(tp, texp)
				so.check(t, what+" (the handle not written)", s, domain)
			case 7: // a drain: 1 100 rows in, then deleted, and the store compacts
				if arity == 0 {
					break
				}
				if base && len(r.Indexes()) == 0 {
					r.AttachIndex("h", index.NewHash([]int{0}))
				}
				drain := make([]tuple.Tuple, 1100)
				for i := range drain {
					drain[i] = append(tuple.Ints(int64(1000+i)), make(tuple.Tuple, arity-1)...)
					r.Insert(drain[i], 30)
				}
				for _, tp := range drain {
					if !r.DeleteKey(tp.Key()) {
						t.Fatalf("%s: the drain's row %v is not there to delete", what, tp)
					}
				}
			}
			o.check(t, what, r, domain)
			// Below a floor a row is stored but not shown, and indexed.
			if ix := r.IndexNamed("h"); ix != nil && o.floor == 0 && ix.Len() != r.Len() {
				t.Fatalf("%s: the hash index holds %d entries for %d rows", what, ix.Len(), r.Len())
			}
		}
	})
}
