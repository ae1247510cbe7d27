// Package wire implements the loosely-coupled deployment the paper's
// introduction motivates: a server hosts the base relations; remote nodes
// materialise query results once and then maintain them *independently*,
// using only the expiration times carried by the result tuples. The
// network is touched again only when a materialisation invalidates —
// or never, when its future (algebra.Births) was shipped along with it.
//
// The protocol runs over TCP: a fixed 6-byte handshake, then one frame per
// message, [4B big-endian payload length][payload]. Payloads are written in
// the row encoding the WAL and snapshots use (tuple.AppendTo and its
// siblings): a response's rows are appended straight from the answer
// relation, and the client decodes them straight into its own. A receiver
// checks a frame's length against its cap before it allocates for the body.
// Traffic accounting (messages and bytes in both directions) feeds
// experiment E6: the cost of recompute-on-invalid versus patch-ahead versus
// the TTL-only baseline that re-fetches on every read.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"expdb/internal/algebra"
	"expdb/internal/relation"
	"expdb/internal/tuple"
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Sentinel errors for the fault-tolerant wire layer. Both endpoints wrap
// rather than replace these, so errors.Is works on anything the client
// or server returns.
var (
	// ErrProtocol: the peer is not an expdb wire endpoint, or speaks an
	// incompatible protocol version (detected at handshake, before any
	// frame is read).
	ErrProtocol = errors.New("wire: protocol mismatch")
	// ErrServerBusy: the server is at its connection limit and cleanly
	// turned the dial away.
	ErrServerBusy = errors.New("wire: server at connection limit")
	// ErrTooLarge: a frame's length header exceeded the receiver's cap.
	ErrTooLarge = errors.New("wire: message exceeds size cap")
	// ErrDegraded: the local copy is invalid and every reconnect attempt
	// failed — the one condition under which a degraded client's Read
	// gives up.
	ErrDegraded = errors.New("wire: degraded: local copy invalid and server unreachable")
)

// The handshake is a fixed 6-byte exchange at dial time, before any frame:
// 4 magic bytes, a version byte, and a status byte. A mismatched or
// non-expdb peer therefore fails with ErrProtocol instead of a garbage
// decode error, and a server at its connection limit can reject cleanly
// (statusBusy) without entering the request loop.
const (
	// ProtocolVersion is bumped on incompatible message-schema changes.
	// Version 1 was a gob stream.
	ProtocolVersion = 2

	statusOK      = 0 // proceed to the request loop
	statusBusy    = 1 // connection limit reached; dial again later
	statusVersion = 2 // version mismatch; peer names its own in the hello
	statusClosing = 3 // server is shutting down
)

var protocolMagic = [4]byte{'E', 'X', 'P', 'W'}

// hello is one handshake frame.
type hello struct {
	magic   [4]byte
	version byte
	status  byte
}

func writeHello(w io.Writer, version, status byte) error {
	frame := [6]byte{protocolMagic[0], protocolMagic[1], protocolMagic[2], protocolMagic[3], version, status}
	_, err := w.Write(frame[:])
	return err
}

func readHello(r io.Reader) (hello, error) {
	var frame [6]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return hello{}, err
	}
	h := hello{version: frame[4], status: frame[5]}
	copy(h.magic[:], frame[:4])
	if h.magic != protocolMagic {
		return h, fmt.Errorf("%w: bad magic %q", ErrProtocol, frame[:4])
	}
	return h, nil
}

// maxFrame caps a frame whatever the endpoint's configuration: a client
// refuses a longer response, and a server answers an error instead of
// sending one.
const maxFrame = 1 << 30

// readFrame reads one frame into buf, reusing its storage, and returns the
// payload. The length header is checked against limit before anything is
// allocated for the body: a longer frame fails with ErrTooLarge, unread. A
// body longer than buf is read in steps that at most double what has
// arrived, so a header alone never makes the receiver allocate more than
// 64 KB beyond the bytes that follow it.
func readFrame(r io.Reader, buf []byte, limit int64) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	n := int64(binary.BigEndian.Uint32(buf))
	if n > limit {
		return buf[:0], fmt.Errorf("%w: %d-byte frame, cap %d", ErrTooLarge, n, limit)
	}
	for buf = buf[:0]; len(buf) < int(n); {
		step := min(int(n), max(cap(buf), 2*len(buf), 64<<10))
		buf = slices.Grow(buf, step-len(buf))
		if _, err := io.ReadFull(r, buf[len(buf):step]); err != nil {
			return buf[:0], err
		}
		buf = buf[:step]
	}
	return buf, nil
}

// beginFrame appends a length placeholder; endFrame fills it in once the
// payload after it is complete.
func beginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

func endFrame(dst []byte, head int) []byte {
	binary.BigEndian.PutUint32(dst[head:], uint32(len(dst)-head-4))
	return dst
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// MsgKind tags protocol messages.
type MsgKind uint8

const (
	// MsgMaterialize asks the server to evaluate a query and return the
	// materialisation with its expiration metadata.
	MsgMaterialize MsgKind = iota
	// MsgTime asks for the server's current tick (loosely-coupled nodes
	// re-synchronise coarsely, not per-operation).
	MsgTime
	// MsgClose ends the session.
	MsgClose
)

// Request is a client → server message. Its payload is the kind byte, the
// query string, WantPatches as a byte, PatchBudget as a uvarint and the
// trace ID as 8 bytes.
type Request struct {
	Kind  MsgKind
	Query string // MsgMaterialize: a SELECT statement
	// WantPatches asks for the result's future when its root has one (a
	// difference, a GROUP BY), enabling recomputation-free maintenance.
	WantPatches bool
	// PatchBudget bounds the number of births shipped (0 = unlimited):
	// the §3.4.2 trade-off between up-front transfer and future
	// communication. With a budget the reported Texp shrinks to the first
	// birth that did not fit.
	PatchBudget int
	// TraceID correlates this request with the server's lifecycle events
	// and spans; 0 lets the server mint one (echoed in the Response).
	TraceID uint64
}

// appendRequest appends req's frame to dst.
func appendRequest(dst []byte, req *Request) []byte {
	head := len(dst)
	dst = append(beginFrame(dst), byte(req.Kind))
	dst = tuple.AppendString(dst, req.Query)
	dst = appendBool(dst, req.WantPatches)
	dst = binary.AppendUvarint(dst, uint64(req.PatchBudget))
	dst = binary.BigEndian.AppendUint64(dst, req.TraceID)
	return endFrame(dst, head)
}

// decodeRequest decodes a request payload.
func decodeRequest(p []byte) (Request, error) {
	d := tuple.NewDecoder(p)
	req := Request{Kind: MsgKind(d.Byte()), Query: d.Str(), WantPatches: d.Byte() != 0,
		PatchBudget: int(d.Uvarint()), TraceID: d.Uint64()}
	return req, finish(&d, "request")
}

// Response is a server → client message. Its payload is the error string,
// Cached as a byte, the trace ID, Now and Texp (8 bytes each), then the
// answer's schema, its rows alive at Now (a uvarint count, then per row the
// tuple and its texp) and its births (a uvarint count, then per birth the
// tuple, InS and InR). The server's respond leaves the answer in rel and
// births, and the frame is appended from them row by row; the client's
// decoder builds both anew.
type Response struct {
	Err  string // non-empty on failure
	Now  xtime.Time
	Texp xtime.Time // texp(e) of the materialisation
	// Cached reports the server answered from a validity-interval result
	// cache entry, as stored, revalidated or patched. [Now, Texp) is the
	// validity window either way, so the client's local-read behaviour is
	// identical; the flag exists for observability.
	Cached bool
	// TraceID is the trace ID the server tagged its work with — the
	// request's, or a freshly minted one — so client-side latency can be
	// correlated with the server's event log and spans.
	TraceID uint64

	// Rows is never sent or filled.
	//
	// Deprecated: the rows travel in the frame, appended from the answer
	// relation. Rows is kept only because the load benchmark's trace replay
	// (benchmark/trace.go) builds it to time gob; delete it with that use.
	Rows []WireRow

	rel    *relation.Relation // the answer: its rows alive at Now
	births algebra.Births     // what it shows next, when shipped
}

// appendResponse appends resp's frame to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	head := len(dst)
	dst = tuple.AppendString(beginFrame(dst), resp.Err)
	dst = appendBool(dst, resp.Cached)
	dst = binary.BigEndian.AppendUint64(dst, resp.TraceID)
	dst = tuple.AppendTime(dst, resp.Now)
	dst = tuple.AppendTime(dst, resp.Texp)
	if resp.rel == nil {
		dst = append(dst, 0, 0) // no columns, no rows
	} else {
		dst = resp.rel.Schema().AppendTo(dst)
		dst = binary.AppendUvarint(dst, uint64(resp.rel.CountAt(resp.Now)))
		resp.rel.AliveAt(resp.Now, func(row relation.Row) {
			dst = tuple.AppendTime(row.Tuple.AppendTo(dst), row.Texp)
		})
	}
	births := resp.births.Rows()
	dst = binary.AppendUvarint(dst, uint64(len(births)))
	for _, b := range births {
		dst = tuple.AppendTime(tuple.AppendTime(b.Tuple.AppendTo(dst), b.InS), b.InR)
	}
	return endFrame(dst, head)
}

// decodeResponse decodes a response payload into a new answer relation and
// its births. Every count is checked against the bytes left, so a corrupt
// or hostile payload cannot make it allocate for rows it does not hold.
func decodeResponse(p []byte) (*Response, error) {
	d := tuple.NewDecoder(p)
	resp := &Response{Err: d.Str(), Cached: d.Byte() != 0, TraceID: d.Uint64(), Now: d.Time(), Texp: d.Time()}
	schema := d.Schema()
	n := d.Count("row count", 9) // an empty tuple and a texp
	resp.rel = relation.NewSized(schema, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		t := d.Tuple()
		resp.rel.InsertOwnedRow(relation.Row{Tuple: t, Texp: d.Time()})
	}
	births := make([]algebra.CriticalRow, d.Count("birth count", 17))
	for i := range births {
		births[i].Tuple = d.Tuple()
		births[i].InS, births[i].InR = d.Time(), d.Time()
	}
	if err := finish(&d, "response"); err != nil {
		return nil, err
	}
	resp.births = algebra.BirthsOf(births)
	return resp, nil
}

// finish reports a payload that did not decode, or had bytes left over.
func finish(d *tuple.Decoder, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: malformed %s: %w", what, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("wire: malformed %s: %d trailing bytes", what, n)
	}
	return nil
}

// WireValue is a scalar value as protocol version 1 sent it.
//
// Deprecated: values travel in the row encoding (tuple.AppendValue).
// WireValue is kept only because the load benchmark's trace replay
// (benchmark/trace.go) builds it to time gob; delete it with that use.
type WireValue struct {
	Kind value.Kind
	I    int64
	F    float64
	S    string
}

// ToWire converts a value to a WireValue.
//
// Deprecated: see WireValue.
func ToWire(v value.Value) WireValue {
	switch v.Kind() {
	case value.KindInt:
		return WireValue{Kind: value.KindInt, I: v.AsInt()}
	case value.KindFloat:
		return WireValue{Kind: value.KindFloat, F: v.AsFloat()}
	case value.KindString:
		return WireValue{Kind: value.KindString, S: v.AsString()}
	case value.KindBool:
		b := int64(0)
		if v.AsBool() {
			b = 1
		}
		return WireValue{Kind: value.KindBool, I: b}
	default:
		return WireValue{Kind: value.KindNull}
	}
}

// WireRow is one result tuple with its expiration time, as protocol
// version 1 sent it.
//
// Deprecated: see WireValue.
type WireRow struct {
	Vals []WireValue
	Texp xtime.Time
}

// Stats counts protocol traffic for one endpoint: frames, and their bytes
// with the length headers.
type Stats struct {
	MessagesSent     int
	MessagesReceived int
	BytesSent        int64
	BytesReceived    int64
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("msgs out/in %d/%d, bytes out/in %d/%d",
		s.MessagesSent, s.MessagesReceived, s.BytesSent, s.BytesReceived)
}
