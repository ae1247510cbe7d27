package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"expdb/internal/value"
	"expdb/internal/xtime"
)

// The row encoding. WAL records, snapshot files and wire frames write their
// strings, values, tuples, schemas and instants this way, so the three share
// one codec:
//
//	string  uvarint length, then the bytes
//	value   kind byte, then INT and FLOAT as 8 bytes big-endian, STRING as a
//	        string, BOOL as one byte 0 or 1, NULL as nothing
//	tuple   uvarint arity, then each value
//	schema  uvarint width, then per column a string name and a kind byte
//	instant 8 bytes big-endian (∞ is MaxInt64, 10 bytes as a varint)
//
// The encoding is an on-disk format: change nothing that alters its bytes.

// AppendString appends s, length-prefixed.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendTime appends an instant.
func AppendTime(dst []byte, t xtime.Time) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(t))
}

// AppendValue appends one value.
func AppendValue(dst []byte, v value.Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case value.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.AsInt()))
	case value.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case value.KindString:
		dst = AppendString(dst, v.AsString())
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

// AppendTo appends t's row encoding to dst.
func (t Tuple) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendTo appends s's encoding to dst.
func (s Schema) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		dst = AppendString(dst, c.Name)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// Decoder reads the row encoding from a buffer, field after field, with a
// sticky error: the first field that does not fit fails it, and every later
// read returns a zero value. No count it reads can make it allocate past
// the end of its buffer.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Err returns the first failure, nil if every read so far fit.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of bytes not read yet.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at payload offset %d", what, d.off)
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Count reads the uvarint count of a list whose elements take at least size
// bytes each, and fails when the rest of the buffer cannot hold that many.
func (d *Decoder) Count(what string, size int) int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Remaining()/size) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// Uint64 reads 8 bytes big-endian.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil || len(d.buf)-d.off < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Time reads an instant.
func (d *Decoder) Time() xtime.Time { return xtime.Time(d.Uint64()) }

// Str reads a string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Value reads one value.
func (d *Decoder) Value() value.Value {
	switch value.Kind(d.Byte()) {
	case value.KindNull:
		return value.Null
	case value.KindInt:
		return value.Int(int64(d.Uint64()))
	case value.KindFloat:
		return value.Float(math.Float64frombits(d.Uint64()))
	case value.KindString:
		return value.String_(d.Str())
	case value.KindBool:
		return value.Bool(d.Byte() != 0)
	default:
		d.fail("value kind")
		return value.Null
	}
}

// Tuple reads a tuple into a slice of its own.
func (d *Decoder) Tuple() Tuple {
	n := d.Count("tuple arity", 1) // every value costs ≥ 1 byte
	if d.err != nil {
		return nil
	}
	t := make(Tuple, 0, n)
	for i := 0; i < n; i++ {
		t = append(t, d.Value())
	}
	return t
}

// Schema reads a schema.
func (d *Decoder) Schema() Schema {
	n := d.Count("schema width", 1)
	if d.err != nil {
		return Schema{}
	}
	cols := make([]Column, 0, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		cols = append(cols, Column{Name: name, Kind: value.Kind(d.Byte())})
	}
	return Schema{Cols: cols}
}
