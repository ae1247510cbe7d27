// Package interval implements sets of half-open time intervals [a, b).
//
// Section 3.3–3.4 of the paper replaces the single expiration time of a
// materialised expression with a set of intervals during which the result
// is valid ("Schrödinger's cat semantics"): the functions I∗ (per-tuple
// validity) and I (expression validity) map into 2^intervals. IntervalSet
// is the carrier for both, with the union/intersection/subtraction the
// paper's formulas (e.g. (12): I(R −exp S) = [τ,∞[ − [min…, max…[) need.
package interval

import (
	"sort"
	"strings"

	"expdb/internal/xtime"
)

// Interval is the half-open span [Start, End). An interval with End ≤
// Start is empty. End may be Infinity.
type Interval struct {
	Start, End xtime.Time
}

// Empty reports whether the interval contains no instants.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Contains reports whether t ∈ [Start, End).
func (iv Interval) Contains(t xtime.Time) bool { return t >= iv.Start && t < iv.End }

// String renders the interval in the paper's [a, b[ notation.
func (iv Interval) String() string {
	return "[" + iv.Start.String() + ", " + iv.End.String() + "["
}

// Validity is the single half-open window [At, ValidUntil) every query
// result is stamped with: the answer was computed at At and remains
// correct — by Theorem 1 and the texp(e) derivations of §2–§4 — at every
// instant before ValidUntil. It is the uniform, result-cache-friendly
// projection of the richer Set semantics below: where a Set can recover
// later windows (§3.3–3.4), a Validity only promises the first one.
type Validity struct {
	At         xtime.Time `json:"at"`
	ValidUntil xtime.Time `json:"valid_until"`
}

// Contains reports whether t ∈ [At, ValidUntil).
func (v Validity) Contains(t xtime.Time) bool { return t >= v.At && t < v.ValidUntil }

// Empty reports whether the window contains no instants.
func (v Validity) Empty() bool { return v.ValidUntil <= v.At }

// Window returns the validity as an Interval.
func (v Validity) Window() Interval { return Interval{Start: v.At, End: v.ValidUntil} }

// String renders the window in the paper's [a, b[ notation.
func (v Validity) String() string { return v.Window().String() }

// Set is an immutable, normalised set of disjoint, sorted, non-empty
// intervals. The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet builds a normalised set from arbitrary intervals: empties are
// dropped; overlapping and adjacent spans merge.
func NewSet(ivs ...Interval) Set {
	keep := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			keep = append(keep, iv)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].Start < keep[j].Start })
	var out []Interval
	for _, iv := range keep {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return Set{ivs: out}
}

// From returns [start, ∞[.
func From(start xtime.Time) Set {
	return NewSet(Interval{Start: start, End: xtime.Infinity})
}

// Empty reports whether the set contains no instants.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Intervals returns the normalised intervals (do not mutate).
func (s Set) Intervals() []Interval { return s.ivs }

// Contains reports whether t belongs to the set.
func (s Set) Contains(t xtime.Time) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > t })
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	return NewSet(append(append([]Interval{}, s.ivs...), o.ivs...)...)
}

// Intersect returns s ∩ o — the combinator §3.4.1 uses to intersect the
// validity intervals of all member tuples into the expression validity.
func (s Set) Intersect(o Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := xtime.Max(a.Start, b.Start)
		hi := xtime.Min(a.End, b.End)
		if lo < hi {
			out = append(out, Interval{Start: lo, End: hi})
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out} // already disjoint and sorted
}

// Subtract returns s − o, the set difference formula (12) is phrased with.
func (s Set) Subtract(o Set) Set {
	var out []Interval
	for _, a := range s.ivs {
		cur := a
		for _, b := range o.ivs {
			if b.End <= cur.Start {
				continue
			}
			if b.Start >= cur.End {
				break
			}
			if b.Start > cur.Start {
				out = append(out, Interval{Start: cur.Start, End: b.Start})
			}
			if b.End >= cur.End {
				cur = Interval{} // fully consumed
				break
			}
			cur = Interval{Start: b.End, End: cur.End}
		}
		if !cur.Empty() {
			out = append(out, cur)
		}
	}
	return Set{ivs: out}
}

// NextIn returns the smallest instant ≥ t that belongs to the set, and
// ok=false when the set contains no instant ≥ t. This implements the
// "move the query forward in time" policy of §3.3.
func (s Set) NextIn(t xtime.Time) (xtime.Time, bool) {
	for _, iv := range s.ivs {
		if iv.End <= t {
			continue
		}
		if iv.Contains(t) {
			return t, true
		}
		return iv.Start, true
	}
	return 0, false
}

// PrevIn returns the largest instant ≤ t that belongs to the set, and
// ok=false when the set contains no instant ≤ t. This implements the
// "move the query backward in time" policy of §3.3 (slightly outdated
// answers).
func (s Set) PrevIn(t xtime.Time) (xtime.Time, bool) {
	for i := len(s.ivs) - 1; i >= 0; i-- {
		iv := s.ivs[i]
		if iv.Start > t {
			continue
		}
		if iv.Contains(t) {
			return t, true
		}
		return iv.End - 1, true
	}
	return 0, false
}

// Equal reports whether the two sets contain the same instants.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set as "{[a, b[, [c, d[}" or "∅".
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
