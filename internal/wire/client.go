package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/interval"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/xtime"
)

// State is the client's connectivity state.
type State int32

const (
	// StateConnected: the last network operation succeeded.
	StateConnected State = iota
	// StateDegraded: the connection is down. Reads keep being answered
	// from the local materialisation while tau < texp — the paper's own
	// correctness guarantee — and the network is retried only when the
	// copy invalidates.
	StateDegraded
)

// String names the state.
func (s State) String() string {
	if s == StateConnected {
		return "connected"
	}
	return "degraded"
}

// Client-side fault-tolerance defaults (overridable via ClientOption).
const (
	// DefaultDialTimeout bounds one TCP dial + handshake.
	DefaultDialTimeout = 5 * time.Second
	// DefaultRequestTimeout bounds one round trip when the caller's
	// context carries no deadline of its own.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultBackoffBase is the first reconnect delay; it doubles per
	// attempt up to DefaultBackoffMax, each delay jittered ±50%.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential reconnect delay.
	DefaultBackoffMax = 2 * time.Second
	// DefaultMaxRetries is how many reconnect attempts one Read makes
	// before giving up with ErrDegraded.
	DefaultMaxRetries = 4
)

// ClientOption configures a Client at Dial time.
type ClientOption func(*clientConfig)

type clientConfig struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
	backoffBase    time.Duration
	backoffMax     time.Duration
	maxRetries     int
	jitterSeed     int64
	dialer         func(addr string) (net.Conn, error)
}

// WithDialTimeout bounds one TCP dial + handshake (default
// DefaultDialTimeout).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.dialTimeout = d }
}

// WithRequestTimeout bounds one round trip when the caller's context has
// no deadline (default DefaultRequestTimeout; 0 disables the fallback).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.requestTimeout = d }
}

// WithBackoff shapes the reconnect policy: the delay starts at base,
// doubles per attempt, and is capped at max; maxRetries bounds attempts
// per Read (defaults: DefaultBackoffBase/Max/MaxRetries).
func WithBackoff(base, max time.Duration, maxRetries int) ClientOption {
	return func(c *clientConfig) {
		c.backoffBase, c.backoffMax, c.maxRetries = base, max, maxRetries
	}
}

// WithJitterSeed seeds the backoff jitter, making retry timing fully
// deterministic — the fault-injection tests pin it.
func WithJitterSeed(seed int64) ClientOption {
	return func(c *clientConfig) { c.jitterSeed = seed }
}

// WithDialer substitutes the transport dialer — the seam through which
// the faultconntest harness injects drops, delays, truncated writes and
// partitions.
func WithDialer(dial func(addr string) (net.Conn, error)) ClientOption {
	return func(c *clientConfig) { c.dialer = dial }
}

// Client is a remote view node: it materialises a query once and then
// answers reads from its local copy, maintained purely by expiration (and
// by applying the births shipped with it). It contacts the server again
// only to re-materialise an invalidated copy.
//
// The client is fault-tolerant: a network error flips it into
// StateDegraded instead of poisoning it. While degraded, Read(tau) keeps
// answering from the local materialisation as long as tau < texp — the
// copy is provably still correct (Theorem 1) — and only when the copy
// invalidates does it reconnect, with capped exponential backoff and
// jitter. Frames carry no state from one to the next, so a fresh
// connection needs nothing but the handshake.
type Client struct {
	addr  string
	cfg   clientConfig
	rng   *rand.Rand
	state atomic.Int32

	conn  net.Conn
	buf   []byte // the request frame written, then the response frame read
	stats Stats

	query       string
	wantPatches bool
	patchBudget int
	mat         algebra.Evaluation // the local copy, births as shipped
	lastTrace   trace.ID

	// Maintenance counters for experiments.
	Rematerializations int
	LocalReads         int
	PatchesApplied     int
	// ServerCacheHits counts materialisations the server answered from
	// its validity-interval result cache (Response.Cached) — re-fetches
	// that cost a round trip but zero server-side re-evaluation.
	ServerCacheHits int

	// Fault-tolerance counters.
	//
	// DegradedReads counts reads answered from the local copy while the
	// connection was down — the availability the paper's validity
	// guarantee buys during a partition.
	DegradedReads int
	// Reconnects counts successful reconnections (handshake completed).
	Reconnects int
	// ReconnectAttempts counts dial attempts made while reconnecting,
	// successful or not.
	ReconnectAttempts int
	// ReconnectFailures counts Read/round-trip sequences that exhausted
	// every reconnect attempt.
	ReconnectFailures int
}

// Dial connects to a wire server and performs the protocol handshake. A
// non-expdb or version-mismatched peer yields ErrProtocol; a server at
// its connection limit yields ErrServerBusy.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	cfg := clientConfig{
		dialTimeout:    DefaultDialTimeout,
		requestTimeout: DefaultRequestTimeout,
		backoffBase:    DefaultBackoffBase,
		backoffMax:     DefaultBackoffMax,
		maxRetries:     DefaultMaxRetries,
		jitterSeed:     1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dialer == nil {
		cfg.dialer = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, cfg.dialTimeout)
		}
	}
	c := &Client{addr: addr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.jitterSeed))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and handshakes. Traffic counters accumulate across
// reconnections.
func (c *Client) connect() error {
	conn, err := c.cfg.dialer(c.addr)
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(c.cfg.dialTimeout))
	if err := writeHello(conn, ProtocolVersion, statusOK); err != nil {
		conn.Close()
		return err
	}
	h, err := readHello(conn)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrProtocol) {
			return err
		}
		return fmt.Errorf("%w: no handshake from peer: %v", ErrProtocol, err)
	}
	switch h.status {
	case statusOK:
	case statusBusy:
		conn.Close()
		return ErrServerBusy
	case statusClosing:
		conn.Close()
		return fmt.Errorf("%w: server shutting down", ErrServerBusy)
	default:
		conn.Close()
		return fmt.Errorf("%w: server speaks version %d, client %d",
			ErrProtocol, h.version, ProtocolVersion)
	}
	conn.SetDeadline(time.Time{})
	c.conn = conn
	c.state.Store(int32(StateConnected))
	return nil
}

// State reports whether the client is connected or riding out a network
// failure on its local copy. Safe to call from any goroutine.
func (c *Client) State() State { return State(c.state.Load()) }

// Close ends the session.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	if c.State() == StateConnected {
		c.conn.SetDeadline(time.Now().Add(c.cfg.dialTimeout))
		_ = c.send(&Request{Kind: MsgClose}) // a courtesy: the connection closes either way
	}
	return c.conn.Close()
}

// Stats returns the client-side traffic counters (cumulative across
// reconnections).
func (c *Client) Stats() Stats { return c.stats }

// degrade records a network failure: the connection is closed and the
// client flips to StateDegraded. The local materialisation is untouched
// — it remains valid until texp regardless of connectivity.
func (c *Client) degrade() {
	c.state.Store(int32(StateDegraded))
	if c.conn != nil {
		c.conn.Close()
	}
}

// reconnect tries to re-establish the connection with capped exponential
// backoff and jitter, honouring ctx between attempts. Each attempt dials
// fresh.
func (c *Client) reconnect(ctx context.Context) error {
	delay := c.cfg.backoffBase
	var lastErr error
	for attempt := 0; attempt < c.cfg.maxRetries; attempt++ {
		if attempt > 0 {
			// Jitter the doubled delay to ±50% so a fleet of clients cut
			// off by the same partition does not reconnect in lockstep.
			d := delay/2 + time.Duration(c.rng.Int63n(int64(delay)+1))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
			if delay *= 2; delay > c.cfg.backoffMax {
				delay = c.cfg.backoffMax
			}
		}
		c.ReconnectAttempts++
		if err := c.connect(); err != nil {
			lastErr = err
			continue
		}
		c.Reconnects++
		return nil
	}
	c.ReconnectFailures++
	if lastErr == nil {
		lastErr = errors.New("no attempts configured")
	}
	return fmt.Errorf("%w (last attempt: %v)", ErrDegraded, lastErr)
}

// withDeadline applies the ctx deadline (or the configured fallback
// request timeout) to the connection for one round trip, and arranges
// for ctx cancellation to interrupt in-flight I/O. The returned stop
// function releases the watcher.
func (c *Client) withDeadline(ctx context.Context) (stop func()) {
	deadline, ok := ctx.Deadline()
	if !ok && c.cfg.requestTimeout > 0 {
		deadline = time.Now().Add(c.cfg.requestTimeout)
		ok = true
	}
	if ok {
		c.conn.SetDeadline(deadline)
	}
	conn := c.conn
	unhook := context.AfterFunc(ctx, func() {
		// Cancellation fires a deadline in the past, failing the I/O now.
		conn.SetDeadline(time.Unix(1, 0))
	})
	return func() {
		unhook()
		conn.SetDeadline(time.Time{})
	}
}

// roundTrip sends one request and decodes its response under the ctx
// deadline. A transport failure degrades the client; a server-reported
// error does not (the connection stays usable).
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if c.State() == StateDegraded {
		if err := c.reconnect(ctx); err != nil {
			return nil, err
		}
	}
	stop := c.withDeadline(ctx)
	defer stop()
	if err := c.send(req); err != nil {
		c.degrade()
		return nil, err
	}
	var err error
	if c.buf, err = readFrame(c.conn, c.buf, maxFrame); err != nil {
		c.degrade()
		return nil, err
	}
	c.stats.MessagesReceived++
	c.stats.BytesReceived += int64(4 + len(c.buf))
	resp, err := decodeResponse(c.buf)
	if err != nil {
		c.degrade() // a peer whose frames do not decode is not one to keep
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("wire: server: %s", resp.Err)
	}
	return resp, nil
}

// send writes req's frame in one Write.
func (c *Client) send(req *Request) error {
	c.buf = appendRequest(c.buf[:0], req)
	if _, err := c.conn.Write(c.buf); err != nil {
		return err
	}
	c.stats.MessagesSent++
	c.stats.BytesSent += int64(len(c.buf))
	return nil
}

// roundTripRetry is roundTrip plus one recovery pass: if the transport
// fails mid-flight, reconnect (with backoff) and retry the request once
// on the fresh connection.
func (c *Client) roundTripRetry(ctx context.Context, req *Request) (*Response, error) {
	resp, err := c.roundTrip(ctx, req)
	if err == nil || c.State() == StateConnected {
		return resp, err // success, or a server-level error: no retry
	}
	if ctx.Err() != nil || errors.Is(err, ErrDegraded) {
		// Cancelled, or roundTrip already burned a full reconnect cycle
		// — don't double the backoff schedule.
		return nil, err
	}
	if rerr := c.reconnect(ctx); rerr != nil {
		return nil, rerr
	}
	return c.roundTrip(ctx, req)
}

// ServerTime fetches the server's current tick.
func (c *Client) ServerTime() (xtime.Time, error) {
	return c.ServerTimeContext(context.Background())
}

// ServerTimeContext is ServerTime under a caller-supplied deadline.
func (c *Client) ServerTimeContext(ctx context.Context) (xtime.Time, error) {
	resp, err := c.roundTripRetry(ctx, &Request{Kind: MsgTime})
	if err != nil {
		return 0, err
	}
	return resp.Now, nil
}

// Materialize fetches the query result and its expiration metadata.
// withPatches additionally ships the result's future where its root has one,
// making the local copy maintainable without recomputation.
func (c *Client) Materialize(query string, withPatches bool) error {
	return c.MaterializeContext(context.Background(), query, withPatches, 0)
}

// MaterializeContext is Materialize under a caller-supplied deadline,
// with a bound on the number of patches shipped (0 = unlimited) — the
// §3.4.2 trade-off between up-front bytes and future re-fetches. When the
// budget is exhausted the local copy invalidates at the first unshipped
// critical event and Read re-fetches. The query and its options become
// the copy's only together with the answer: after a failed fetch the
// client still holds, and re-fetches, the query its copy answers.
func (c *Client) MaterializeContext(ctx context.Context, query string, withPatches bool, budget int) error {
	// A fresh trace ID per materialisation: the server tags its events
	// and echoes it, so this fetch is correlatable with server spans.
	tid := trace.NextID()
	resp, err := c.roundTripRetry(ctx, &Request{Kind: MsgMaterialize, Query: query,
		WantPatches: withPatches, PatchBudget: budget, TraceID: uint64(tid)})
	if err != nil {
		return err
	}
	c.query, c.wantPatches, c.patchBudget = query, withPatches, budget
	c.lastTrace = trace.ID(resp.TraceID)
	c.mat = algebra.Evaluation{Rel: resp.rel, At: resp.Now, Texp: resp.Texp, Births: resp.births}
	if resp.Cached {
		c.ServerCacheHits++
	}
	return nil
}

// Texp returns the expiration time of the local materialisation.
func (c *Client) Texp() xtime.Time { return c.mat.Texp }

// Validity returns the stamp of the last answer Read gave: the rows are the
// answer since the copy was fetched or the last birth applied to it, and
// until its texp or the next pending birth. The same interval a Result
// carries locally, so remote and embedded readers reason about freshness in
// one currency.
func (c *Client) Validity() interval.Validity { return c.mat.Validity() }

// LastTraceID returns the trace ID of the most recent materialisation,
// as confirmed by the server — the key for finding this fetch in the
// server's SHOW EVENTS output and /debug/events endpoint.
func (c *Client) LastTraceID() trace.ID { return c.lastTrace }

// Read answers a query at tick tau from the local copy, re-materialising
// over the network only when the copy is invalid.
func (c *Client) Read(tau xtime.Time) (*relation.Relation, error) {
	return c.ReadContext(context.Background(), tau)
}

// ReadContext is Read under a caller-supplied deadline. This is where
// the paper's validity guarantee turns into availability: while the copy
// Holds tau (fetched at or before tau, and tau < texp) it is provably the
// correct answer (Theorem 1), so a network partition degrades reads instead
// of failing them — zero round trips, zero errors. Only a read outside the validity
// window touches the network, reconnecting with capped backoff first if
// the client is degraded; ErrDegraded surfaces only when the copy is
// invalid AND every reconnect attempt failed.
func (c *Client) ReadContext(ctx context.Context, tau xtime.Time) (*relation.Relation, error) {
	if c.mat.Rel == nil {
		return nil, fmt.Errorf("wire: client has no materialisation")
	}
	// Births due are applied (and counted) whether or not the copy is then
	// found invalid and replaced: PatchesApplied keeps its meaning (E10).
	// The caller gets a shared immutable snapshot of the local copy.
	rel, applied := c.mat.Serve(tau)
	c.PatchesApplied += applied
	if !c.mat.Holds(tau) {
		if err := c.MaterializeContext(ctx, c.query, c.wantPatches, c.patchBudget); err != nil {
			return nil, err
		}
		c.Rematerializations++
		rel, applied = c.mat.Serve(tau)
		c.PatchesApplied += applied
	} else {
		c.LocalReads++
		if c.State() == StateDegraded {
			c.DegradedReads++
		}
	}
	return rel, nil
}
