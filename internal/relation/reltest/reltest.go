// Package reltest holds the relation comparisons and builders that tests
// share. Only test files import it.
package reltest

import (
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/xtime"
)

// EqualAt reports whether expτ(a) and expτ(b) contain the same tuples with
// the same expiration times.
func EqualAt(a, b *relation.Relation, tau xtime.Time) bool {
	if a.CountAt(tau) != b.CountAt(tau) {
		return false
	}
	equal := true
	a.AliveAt(tau, func(row relation.Row) {
		// row is alive at tau, so an equal texp in b is alive there too.
		if texp, ok := b.Texp(row.Tuple); !ok || texp != row.Texp {
			equal = false
		}
	})
	return equal
}

// SameTuplesAt is EqualAt ignoring expiration times: the two relations are
// equal as plain sets at time tau.
func SameTuplesAt(a, b *relation.Relation, tau xtime.Time) bool {
	if a.CountAt(tau) != b.CountAt(tau) {
		return false
	}
	equal := true
	a.AliveAt(tau, func(row relation.Row) {
		if !b.Contains(row.Tuple, tau) {
			equal = false
		}
	})
	return equal
}

// MustInsertInts inserts an all-integer tuple into r, panicking if r's
// schema rejects it.
func MustInsertInts(r *relation.Relation, texp xtime.Time, vs ...int64) {
	t := tuple.Ints(vs...)
	if err := r.Schema().Validate(t); err != nil {
		panic(err)
	}
	r.Insert(t, texp)
}
