// Package xtime implements the totally ordered time domain used by the
// expiration-time data model: non-negative integer instants extended with
// the symbol ∞ (Infinity), which is larger than every finite time.
//
// The paper ("Expiration Times for Data Management", ICDE 2006, §2.2)
// identifies finite times with the non-negative integers and uses ∞ as the
// expiration time of tuples that never expire; with all expiration times
// set to ∞ the algebra degrades to the textbook SPCU algebra.
package xtime

import (
	"fmt"
	"math"
	"strconv"
)

// Time is an instant on the totally ordered time domain. Finite instants
// are non-negative; Infinity denotes "never".
type Time int64

// Infinity is larger than any finite Time and marks tuples and expressions
// that never expire.
const Infinity Time = math.MaxInt64

// Never is an alias for Infinity that reads better at insertion sites.
const Never = Infinity

// IsFinite reports whether t is a finite instant (not Infinity).
func (t Time) IsFinite() bool { return t != Infinity }

// Min returns the smaller of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Add returns t+d, saturating at Infinity. Adding any duration to Infinity
// yields Infinity, matching the algebra's treatment of never-expiring data.
func (t Time) Add(d Time) Time {
	if t == Infinity || d == Infinity {
		return Infinity
	}
	if t > Infinity-d {
		return Infinity
	}
	return t + d
}

// String renders finite times as decimal integers and Infinity as "inf".
func (t Time) String() string {
	var b [20]byte
	return string(t.AppendString(b[:0]))
}

// AppendString appends t, rendered as String renders it, to b.
func (t Time) AppendString(b []byte) []byte {
	if t == Infinity {
		return append(b, "inf"...)
	}
	return strconv.AppendInt(b, int64(t), 10)
}

// Parse converts the textual forms accepted by String (plus the aliases
// "infinity" and "never") back into a Time.
func Parse(s string) (Time, error) {
	switch s {
	case "inf", "infinity", "never", "∞":
		return Infinity, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("xtime: parse %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("xtime: parse %q: negative instant", s)
	}
	return Time(n), nil
}
