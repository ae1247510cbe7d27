// Package wire implements the loosely-coupled deployment the paper's
// introduction motivates: a server hosts the base relations; remote nodes
// materialise query results once and then maintain them *independently*,
// using only the expiration times carried by the result tuples. The
// network is touched again only when a materialisation invalidates —
// or never, when its future (algebra.Births) was shipped along with it.
//
// The protocol is a length-free gob stream over TCP. Traffic accounting
// (messages and bytes in both directions) feeds experiment E6: the cost of
// recompute-on-invalid versus patch-ahead versus the TTL-only baseline
// that re-fetches on every read.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Sentinel errors for the fault-tolerant wire layer. Both endpoints wrap
// rather than replace these, so errors.Is works on anything the client
// or server returns.
var (
	// ErrProtocol: the peer is not an expdb wire endpoint, or speaks an
	// incompatible protocol version (detected at handshake, before gob
	// ever touches the stream).
	ErrProtocol = errors.New("wire: protocol mismatch")
	// ErrServerBusy: the server is at its connection limit and cleanly
	// turned the dial away.
	ErrServerBusy = errors.New("wire: server at connection limit")
	// ErrTooLarge: a single message exceeded the max-decode byte cap.
	ErrTooLarge = errors.New("wire: message exceeds size cap")
	// ErrDegraded: the local copy is invalid and every reconnect attempt
	// failed — the one condition under which a degraded client's Read
	// gives up.
	ErrDegraded = errors.New("wire: degraded: local copy invalid and server unreachable")
)

// The handshake is a fixed 6-byte frame exchanged at dial time, before
// gob touches the stream: 4 magic bytes, a version byte, and a status
// byte. A mismatched or non-expdb peer therefore fails with ErrProtocol
// instead of a garbage gob decode error, and a server at its connection
// limit can reject cleanly (statusBusy) without entering the request
// loop.
const (
	// ProtocolVersion is bumped on incompatible message-schema changes.
	ProtocolVersion = 1

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

// cappedReader enforces the max-decode byte cap: once more than limit
// bytes flow through between Reset calls it fails the stream, so a
// hostile or corrupt peer cannot make gob allocate unboundedly. The
// endpoint resets it before each Decode, bounding every message
// individually (gob reads exactly one length-delimited message per
// Decode, so the window aligns with message boundaries).
type cappedReader struct {
	r       io.Reader
	limit   int64
	n       int64
	tripped bool
}

func (c *cappedReader) Reset() { c.n = 0 }

// Tripped reports whether the cap has been exceeded since creation —
// checked on decode errors because gob may wrap the reader's error.
func (c *cappedReader) Tripped() bool { return c.tripped }

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.limit > 0 && c.n >= c.limit {
		c.tripped = true
		return 0, ErrTooLarge
	}
	if c.limit > 0 && int64(len(p)) > c.limit-c.n {
		p = p[:c.limit-c.n]
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
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

// Request is a client → server message.
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

// WireValue is the transport form of a scalar value.
type WireValue struct {
	Kind value.Kind
	I    int64
	F    float64
	S    string
}

// ToWire converts a value for transport.
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

// FromWire converts a transported value back.
func (w WireValue) FromWire() value.Value {
	switch w.Kind {
	case value.KindInt:
		return value.Int(w.I)
	case value.KindFloat:
		return value.Float(w.F)
	case value.KindString:
		return value.String_(w.S)
	case value.KindBool:
		return value.Bool(w.I != 0)
	default:
		return value.Null
	}
}

// WireRow is one result tuple with its expiration time.
type WireRow struct {
	Vals []WireValue
	Texp xtime.Time
}

// WireColumn describes one schema column.
type WireColumn struct {
	Name string
	Kind value.Kind
}

// WirePatch is one birth: insert Vals with expiration InR once the server
// tick reaches InS.
type WirePatch struct {
	Vals []WireValue
	InS  xtime.Time
	InR  xtime.Time
}

// Response is a server → client message.
type Response struct {
	Err     string // non-empty on failure
	Now     xtime.Time
	Cols    []WireColumn
	Rows    []WireRow
	Texp    xtime.Time // texp(e) of the materialisation
	Patches []WirePatch
	// Cached reports the server answered from a validity-interval result
	// cache entry, as stored, revalidated or patched. [Now, Texp) is the validity
	// window either way, so the client's local-read behaviour is
	// identical; the flag exists for observability. (Gob tolerates the
	// field's absence, so mixed-version endpoints interoperate: a missing
	// flag decodes as false.)
	Cached bool
	// TraceID is the trace ID the server tagged its work with — the
	// request's, or a freshly minted one — so client-side latency can be
	// correlated with the server's event log and spans.
	TraceID uint64
}

func init() {
	gob.Register(Request{})
	gob.Register(Response{})
}

// Stats counts protocol traffic for one endpoint.
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
