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

// FuzzWireFrame: any bytes, as a request or response payload or as a frame
// on a stream, fail with an error or decode — never a panic — and cost
// allocations in proportion to their length, whatever counts they claim. A
// response that decodes encodes again to the same response.
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
