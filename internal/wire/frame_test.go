package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// frameRoundTrip encodes resp, reads the frame back as a receiver does and
// decodes it.
func frameRoundTrip(t testing.TB, resp *Response) *Response {
	t.Helper()
	frame := appendResponse(nil, resp)
	payload, err := readFrame(bytes.NewReader(frame), nil, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// edgeValues are the values whose encoding has an edge: NaN, −0, the INT
// extremes, an empty string and one longer than a one-byte length, NULL and
// both BOOLs.
var edgeValues = tuple.Tuple{
	value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Int(math.MinInt64), value.Int(math.MaxInt64),
	value.String_(""), value.String_(strings.Repeat("long ", 100)), value.Null, value.Bool(true), value.Bool(false),
}

// edgeResponses are a response of every shape: rows of every edge value
// with texp ∞, births, an error, and the empty answer to MsgTime.
func edgeResponses() []*Response {
	cols := make([]tuple.Column, len(edgeValues))
	for i, v := range edgeValues {
		cols[i] = tuple.Column{Name: strings.Repeat("c", i), Kind: v.Kind()}
	}
	rel := relation.New(tuple.Schema{Cols: cols})
	rel.Insert(edgeValues, xtime.Infinity)
	rel.Insert(edgeValues[1:].Concat(edgeValues[:1]), 12)
	births := algebra.BirthsOf([]algebra.CriticalRow{
		{Tuple: edgeValues, InS: 4, InR: xtime.Infinity}, {Tuple: edgeValues[2:].Concat(edgeValues[:2]), InS: 3, InR: 9},
	})
	return []*Response{
		{Now: 2, Texp: xtime.Infinity, Cached: true, TraceID: math.MaxUint64, rel: rel, births: births},
		{Now: 2, Texp: 3, rel: rel},
		{Err: "wire: no such table", Now: 7, TraceID: 1},
		{Now: math.MaxInt64},
	}
}

// sameResponse compares two responses field by field, rows and births by
// their set keys (bit for bit: NaN and −0 included).
func sameResponse(t *testing.T, got, want *Response) {
	t.Helper()
	if got.Err != want.Err || got.Now != want.Now || got.Texp != want.Texp || got.Cached != want.Cached || got.TraceID != want.TraceID {
		t.Fatalf("header: got %+v, want %+v", got, want)
	}
	if want.rel != nil && !reflect.DeepEqual(got.rel.Schema(), want.rel.Schema()) {
		t.Fatalf("schema %v, want %v", got.rel.Schema(), want.rel.Schema())
	}
	keyed := func(resp *Response) (rows, births []string) {
		if resp.rel != nil {
			for _, row := range resp.rel.RowsSorted(resp.Now) {
				rows = append(rows, string(tuple.AppendTime([]byte(row.Tuple.Key()), row.Texp)))
			}
		}
		for _, b := range resp.births.Rows() {
			births = append(births, string(tuple.AppendTime(tuple.AppendTime([]byte(b.Tuple.Key()), b.InS), b.InR)))
		}
		return rows, births
	}
	gr, gb := keyed(got)
	wr, wb := keyed(want)
	if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gb, wb) {
		t.Fatalf("rows %q births %q, want %q and %q", gr, gb, wr, wb)
	}
}

// TestWireValueRoundTrip: every value kind and its edges, texp ∞, births,
// an error response and an empty one cross a frame and come back as sent,
// bit for bit; so do requests.
func TestWireValueRoundTrip(t *testing.T) {
	for _, resp := range edgeResponses() {
		sameResponse(t, frameRoundTrip(t, resp), resp)
	}
	for _, req := range []Request{
		{Kind: MsgMaterialize, Query: "SELECT * FROM pol", WantPatches: true, PatchBudget: 3, TraceID: math.MaxUint64},
		{Kind: MsgMaterialize, Query: strings.Repeat("x", 300), PatchBudget: -1},
		{Kind: MsgTime}, {Kind: MsgClose},
	} {
		frame := appendRequest(nil, &req)
		if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("length header %d, payload %d bytes", n, len(frame)-4)
		}
		if got, err := decodeRequest(frame[4:]); err != nil || got != req {
			t.Fatalf("request %+v came back %+v, %v", req, got, err)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestFrameLengthCheckedFirst: a header claiming 2 GB is refused with
// ErrTooLarge after its four bytes, before the body is read or allocated;
// a server counts it and drops the connection at once.
func TestFrameLengthCheckedFirst(t *testing.T) {
	claim := []byte{0x80, 0, 0, 0}
	r := &countingReader{r: io.MultiReader(bytes.NewReader(claim), strings.NewReader(strings.Repeat("x", 64)))}
	if buf, err := readFrame(r, nil, maxFrame); !errors.Is(err, ErrTooLarge) || r.n != 4 || cap(buf) > 64 {
		t.Fatalf("err %v after %d bytes read, buffer of %d", err, r.n, cap(buf))
	}

	_, srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) // far inside the server's idle timeout
	if err := writeHello(conn, ProtocolVersion, statusOK); err != nil {
		t.Fatal(err)
	}
	if h, err := readHello(conn); err != nil || h.status != statusOK {
		t.Fatalf("handshake: %+v, %v", h, err)
	}
	if _, err := conn.Write(claim); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the server answered a 2 GB header: %d bytes, %v", n, err)
	}
	waitFor(t, func() bool { return srv.WireMetrics().OversizedRejected == 1 })
}

// responseFrame is the payload of a response at tick 0 whose answer holds
// rows as given — repeats included, which appendResponse, reading a set,
// cannot write.
func responseFrame(schema tuple.Schema, rows ...relation.Row) []byte {
	p := appendBool(tuple.AppendString(nil, ""), false)
	p = tuple.AppendTime(tuple.AppendTime(binary.BigEndian.AppendUint64(p, 0), 0), xtime.Infinity)
	p = binary.AppendUvarint(schema.AppendTo(p), uint64(len(rows)))
	for _, row := range rows {
		p = tuple.AppendTime(row.Tuple.AppendTo(p), row.Texp)
	}
	return binary.AppendUvarint(p, 0) // no births
}

// claimedRows is the row count a response payload claims, or -1 when its
// header does not decode.
func claimedRows(p []byte) int {
	d := tuple.NewDecoder(p)
	d.Str()
	d.Byte()
	d.Uint64()
	d.Time()
	d.Time()
	d.Schema()
	if n := d.Uvarint(); d.Err() == nil {
		return int(n)
	}
	return -1
}

// TestDecodeRejectsRepeatedRows: an answer is a set, so a response whose
// rows repeat one another — the same bytes, or values whose set keys agree
// (INT 1 and FLOAT 1, −0 and 0), next to each other or far apart — is
// malformed, and distinct rows decode to a relation of exactly as many rows.
func TestDecodeRejectsRepeatedRows(t *testing.T) {
	ints := tuple.IntCols("a", "b")
	one := []relation.Row{{Tuple: tuple.Ints(1, 2), Texp: 5}}
	if got, want := responseFrame(ints, one...), appendResponse(nil, &Response{Texp: xtime.Infinity, rel: relationOf(ints, one)})[4:]; !bytes.Equal(got, want) {
		t.Fatalf("responseFrame writes %x, appendResponse %x", got, want)
	}
	var many []relation.Row
	for i := int64(0); i < 100; i++ {
		many = append(many, relation.Row{Tuple: tuple.Ints(i, -i), Texp: xtime.Time(1 + i)})
	}
	floats := tuple.Schema{Cols: []tuple.Column{tuple.Col("x", value.KindFloat)}}
	for _, c := range []struct {
		name   string
		schema tuple.Schema
		rows   []relation.Row
	}{
		{"the same row twice", ints, []relation.Row{{Tuple: tuple.Ints(1, 2), Texp: 5}, {Tuple: tuple.Ints(1, 2), Texp: 7}}},
		{"a repeat far from its twin", ints, append(slices.Clone(many), relation.Row{Tuple: tuple.Ints(37, -37), Texp: 3})},
		{"INT 1 and FLOAT 1", floats, []relation.Row{{Tuple: tuple.T(value.Int(1)), Texp: 5}, {Tuple: tuple.T(value.Float(1)), Texp: 5}}},
		{"−0 and 0", floats, []relation.Row{{Tuple: tuple.T(value.Float(math.Copysign(0, -1))), Texp: 5}, {Tuple: tuple.T(value.Float(0)), Texp: 5}}},
		{"⟨⟩ twice", tuple.Schema{}, []relation.Row{{Tuple: tuple.T(), Texp: 5}, {Tuple: tuple.T(), Texp: 6}}},
	} {
		resp, err := decodeResponse(responseFrame(c.schema, c.rows...))
		if err == nil || !strings.Contains(err.Error(), "malformed response") {
			t.Fatalf("%s: decoded to %v (%v), want a malformed response", c.name, resp, err)
		}
	}
	resp, err := decodeResponse(responseFrame(ints, many...))
	if err != nil || resp.rel.Len() != len(many) || resp.rel.CountAt(0) != len(many) {
		t.Fatalf("100 distinct rows: %v", err)
	}
}

// relationOf is a relation holding rows.
func relationOf(schema tuple.Schema, rows []relation.Row) *relation.Relation {
	rel := relation.New(schema)
	for _, row := range rows {
		rel.InsertOwnedRow(row)
	}
	return rel
}

// FuzzWireFrame: any bytes, as a request or response payload or as a frame
// on a stream, fail with an error or decode — never a panic — and cost
// allocations in proportion to their length, whatever counts they claim. A
// response that decodes holds as many rows as it claims, each distinct, and
// encodes again to the same response.
func FuzzWireFrame(f *testing.F) {
	for _, resp := range edgeResponses() {
		f.Add(appendResponse(nil, resp)[4:])
	}
	f.Add(appendRequest(nil, &Request{Kind: MsgMaterialize, Query: "SELECT uid FROM pol", WantPatches: true, PatchBudget: 2, TraceID: 9})[4:])
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff})
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	f.Fuzz(func(t *testing.T, in []byte) {
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		decodeRequest(in)
		resp, err := decodeResponse(in)
		readFrame(bytes.NewReader(in), nil, maxFrame)
		metrics.Read(allocated)
		// The slack absorbs what other goroutines allocate meanwhile; a
		// claimed count that were trusted would cost gigabytes.
		if n := allocated[0].Value.Uint64() - before; n > 64*uint64(len(in))+8<<20 {
			t.Fatalf("%d bytes allocated decoding %d", n, len(in))
		}
		if err == nil {
			keys := make(map[string]bool)
			resp.rel.All(func(row relation.Row) { keys[row.Tuple.Key()] = true })
			if n := claimedRows(in); resp.rel.Len() != n || len(keys) != n {
				t.Fatalf("%d rows claimed, %d decoded, %d distinct", n, resp.rel.Len(), len(keys))
			}
			sameResponse(t, frameRoundTrip(t, resp), resp)
		}
	})
}

// BenchmarkWireCodec encodes a 100-row response into a reused buffer and
// decodes it, in process: what one range answer costs the two ends beyond
// the socket (scripts/alloc-gates.sh).
func BenchmarkWireCodec(b *testing.B) {
	rel := relation.New(tuple.IntCols("sid", "uid", "score"))
	for sid := int64(1); sid <= 100; sid++ {
		rel.Insert(tuple.Ints(sid, sid%8, sid*37%100), xtime.Time(1+sid%40))
	}
	resp := &Response{Now: 0, Texp: 1, rel: rel}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendResponse(buf[:0], resp)
		back, err := decodeResponse(buf[4:])
		if err != nil || back.rel.CountAt(0) != 100 {
			b.Fatalf("%v", err)
		}
	}
}
