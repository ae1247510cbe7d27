// Package tuple implements tuples and relation schemas.
//
// A relation R of arity α(R) is a subset of D^α(R); a tuple r is an element
// of R and r(i) denotes its i-th attribute (paper §2.2, 1-based). This
// package stores attributes 0-based but offers 1-based accessors mirroring
// the paper's notation where that clarifies the correspondence.
package tuple

import (
	"errors"
	"fmt"
	"strings"

	"expdb/internal/value"
)

// ErrSchemaMismatch is the sentinel wrapped by every Validate failure:
// a tuple whose arity or attribute kinds do not conform to a schema.
// Match with errors.Is through the engine and SQL layers.
var ErrSchemaMismatch = errors.New("tuple: schema mismatch")

// Tuple is an ordered list of attribute values.
type Tuple []value.Value

// T builds a tuple from its arguments.
func T(vs ...value.Value) Tuple { return Tuple(vs) }

// Ints builds a tuple of integer attributes — the common case in the
// paper's examples, e.g. Pol⟨1, 25⟩.
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = value.Int(v)
	}
	return t
}

// Arity returns α(t), the number of attributes.
func (t Tuple) Arity() int { return len(t) }

// At returns r(i) with the paper's 1-based indexing.
func (t Tuple) At(i int) value.Value { return t[i-1] }

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports attribute-wise equality under value coercion rules.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; shorter tuples sort first on a
// shared prefix.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// Project returns ⟨r(j1),...,r(jn)⟩ for 0-based column indexes cols.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Concat returns the concatenation ⟨r(1),...,r(α(R)),s(1),...,s(α(S))⟩ used
// by the Cartesian product.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	return append(out, o...)
}

// Key returns the tuple's set key as a string: two tuples share a key
// exactly when they are Equal. A base table's texp heap and indexes hold it.
func (t Tuple) Key() string {
	var buf [KeyBuf]byte
	return string(t.AppendKey(buf[:0]))
}

// KeyBuf sizes the stack buffers set keys are encoded into: 14 numbers.
const KeyBuf = 128

// AppendKey appends the tuple's set key to dst.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// AppendKeyCols appends the set key of ⟨t(c) | c ∈ cols⟩ to dst — the key
// Project(cols).AppendKey would produce, without building the projected
// tuple.
func (t Tuple) AppendKeyCols(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = t[c].AppendKey(dst)
	}
	return dst
}

// String renders the tuple in the paper's angle-bracket style: ⟨1, 25⟩.
func (t Tuple) String() string {
	var buf [64]byte
	return string(t.AppendString(buf[:0]))
}

// AppendString appends t, rendered as String renders it, to b.
func (t Tuple) AppendString(b []byte) []byte {
	b = append(b, "⟨"...)
	for i, v := range t {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, v.String()...)
	}
	return append(b, "⟩"...)
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is the ordered list of attributes of a relation or expression
// result.
type Schema struct {
	Cols []Column
}

// Col is shorthand for constructing a Column.
func Col(name string, kind value.Kind) Column { return Column{Name: name, Kind: kind} }

// IntCols builds a schema of integer columns with the given names —
// matching the paper's example tables.
func IntCols(names ...string) Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: value.KindInt}
	}
	return Schema{Cols: cols}
}

// Arity returns α of the schema.
func (s Schema) Arity() int { return len(s.Cols) }

// ColumnIndex returns the 0-based index of the named column, or -1. Name
// matching is case-insensitive, like SQL identifiers.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Project returns the schema of a projection onto 0-based cols.
func (s Schema) Project(cols []int) Schema {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = s.Cols[c]
	}
	return Schema{Cols: out}
}

// Concat returns the schema of a Cartesian product result.
func (s Schema) Concat(o Schema) Schema {
	out := make([]Column, 0, len(s.Cols)+len(o.Cols))
	out = append(out, s.Cols...)
	return Schema{Cols: append(out, o.Cols...)}
}

// UnionCompatible reports whether s and o can participate in union,
// intersection and difference: equal arity and pair-wise compatible kinds
// (numeric kinds are mutually compatible).
func (s Schema) UnionCompatible(o Schema) bool {
	if len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if !kindsCompatible(s.Cols[i].Kind, o.Cols[i].Kind) {
			return false
		}
	}
	return true
}

func kindsCompatible(a, b value.Kind) bool {
	if a == b {
		return true
	}
	num := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	if num(a) && num(b) {
		return true
	}
	// NULL columns are compatible with anything.
	return a == value.KindNull || b == value.KindNull
}

// Validate checks that t conforms to the schema: right arity and, for each
// non-NULL attribute, a kind compatible with the column.
func (s Schema) Validate(t Tuple) error {
	if len(t) != len(s.Cols) {
		return fmt.Errorf("%w: arity %d does not match schema arity %d",
			ErrSchemaMismatch, len(t), len(s.Cols))
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if !kindsCompatible(v.Kind(), s.Cols[i].Kind) {
			return fmt.Errorf("%w: attribute %d (%s) has kind %s, want %s",
				ErrSchemaMismatch, i+1, s.Cols[i].Name, v.Kind(), s.Cols[i].Kind)
		}
	}
	return nil
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
