package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/engine"
	"expdb/internal/relation"
	"expdb/internal/sql"
	"expdb/internal/trace"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// Fault-tolerance defaults. All are configurable per server via the
// With* options; zero values in the config mean "use the default".
const (
	// DefaultIdleTimeout is how long a connection may sit idle (no
	// complete request read, no response written) before the server
	// closes it.
	DefaultIdleTimeout = 30 * time.Second
	// DefaultMaxMessageBytes caps a single request frame, bounding what a
	// hostile or corrupt peer can make the server allocate.
	DefaultMaxMessageBytes = 8 << 20
	// DefaultMaxConns caps concurrent connections; dials beyond it are
	// rejected cleanly at handshake time with ErrServerBusy.
	DefaultMaxConns = 256
	// DefaultDrainTimeout bounds how long Close waits for in-flight
	// connections before hard-closing the stragglers.
	DefaultDrainTimeout = 5 * time.Second
)

// ServerOption configures a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	idleTimeout time.Duration
	maxMsgBytes int64
	maxConns    int
	drain       time.Duration
}

// WithIdleTimeout sets the per-connection read/write deadline: a peer
// that neither completes a request nor accepts a response within d is
// disconnected (default DefaultIdleTimeout).
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
}

// WithMaxMessageBytes caps the size of a single request frame (default
// DefaultMaxMessageBytes). The cap is checked against the frame's length
// header, so an oversized message fails with ErrTooLarge before its body
// is read or allocated.
func WithMaxMessageBytes(n int64) ServerOption {
	return func(c *serverConfig) { c.maxMsgBytes = n }
}

// WithMaxConns caps concurrent connections (default DefaultMaxConns).
// Excess dials complete the handshake, receive statusBusy, and are
// closed — the client surfaces ErrServerBusy.
func WithMaxConns(n int) ServerOption {
	return func(c *serverConfig) { c.maxConns = n }
}

// WithDrainTimeout bounds how long Close/Shutdown waits for in-flight
// connections before hard-closing them (default DefaultDrainTimeout).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.drain = d }
}

// Server exposes an engine's relations to remote view nodes, and is
// built to survive real networks: per-connection deadlines, a frame
// byte cap, panic recovery in handlers, a connection limit with clean
// rejection, a temporary-error-tolerant accept loop, and graceful
// drain-then-hard-close shutdown. Every failure mode it rides out is
// counted in WireMetrics and emitted as a trace lifecycle event.
type Server struct {
	eng  *engine.Engine
	sqlm *sql.Metrics // shared by every connection's planning session
	ln   net.Listener
	cfg  serverConfig
	wm   Metrics

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]*connState
	pending sync.WaitGroup

	// testRespondHook, when set, runs before each respond — fault tests
	// use it to hold a request in flight or to panic inside the handler.
	testRespondHook func(*Request)
}

// setRespondHook installs (or clears) the test hook under the mutex.
func (s *Server) setRespondHook(fn func(*Request)) {
	s.mu.Lock()
	s.testRespondHook = fn
	s.mu.Unlock()
}

// NewServer wraps eng; call Listen (or Serve with your own listener) to
// start. Every remote read is recorded into sqlm as a SELECT, so an
// embedder that passes its own session's metrics sees local and remote
// statements together; nil gives the server a private one.
func NewServer(eng *engine.Engine, sqlm *sql.Metrics, opts ...ServerOption) *Server {
	cfg := serverConfig{
		idleTimeout: DefaultIdleTimeout,
		maxMsgBytes: DefaultMaxMessageBytes,
		maxConns:    DefaultMaxConns,
		drain:       DefaultDrainTimeout,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if sqlm == nil {
		sqlm = &sql.Metrics{}
	}
	return &Server{
		eng:   eng,
		sqlm:  sqlm,
		cfg:   cfg,
		conns: make(map[net.Conn]*connState),
	}
}

// connState marks whether a connection is mid-request. Shutdown closes
// idle connections (blocked reading a frame, between requests) immediately and
// drains only the in-flight ones.
type connState struct {
	inFlight atomic.Bool
}

// WireMetrics returns the fault-tolerance counters: connections
// accepted/rejected, timeouts, panics recovered, oversized messages
// refused, accept retries.
func (s *Server) WireMetrics() MetricsSnapshot { return s.wm.Snapshot() }

// Listen starts accepting on addr (e.g. "127.0.0.1:0") in a background
// goroutine and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting on a caller-supplied listener in a background
// goroutine — the seam fault tests use to inject accept errors.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
}

// Close gracefully shuts the server down with the configured drain
// timeout: stop accepting, wait for in-flight connections, hard-close
// stragglers.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.drain)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown stops accepting, drains in-flight connections until ctx
// expires, then hard-closes the stragglers so it always returns promptly
// after the deadline. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil && !already {
		err = ln.Close()
	}

	// Idle connections (no request mid-flight) are closed immediately —
	// they have nothing to drain; their handlers exit on the failed read.
	s.mu.Lock()
	for c, st := range s.conns {
		if !st.inFlight.Load() {
			c.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(done)
	}()
	stragglers := 0
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline passed: hard-close whatever is still open. The
		// handlers' next read/write fails and they exit; a handler stuck
		// in pure computation cannot be killed, so wait only a short
		// grace before returning rather than hanging Shutdown on it.
		s.mu.Lock()
		stragglers = len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(500 * time.Millisecond):
		}
	}
	if !already {
		s.eng.Events().Emit(trace.Event{
			Kind: trace.EvWireShutdown, Tick: s.eng.Now(), Count: int64(stragglers),
		})
	}
	return err
}

// Stats returns the server-side traffic counters.
func (s *Server) Stats() Stats {
	return Stats{
		MessagesSent:     int(s.wm.MessagesSent.Load()),
		MessagesReceived: int(s.wm.MessagesReceived.Load()),
		BytesSent:        s.wm.BytesSent.Load(),
		BytesReceived:    s.wm.BytesReceived.Load(),
	}
}

// acceptLoop accepts until the listener closes, retrying temporary
// errors with capped backoff instead of silently exiting, and rejecting
// connections that race in during Close.
func (s *Server) acceptLoop(ln net.Listener) {
	backoff := 5 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || isTemporary(err) {
				s.wm.AcceptRetries.Inc()
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				continue
			}
			log.Printf("wire: accept: %v", err)
			return
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Accepted during Close: reject instead of handling.
			s.rejectConn(conn, statusClosing)
			continue
		}
		atLimit := len(s.conns) >= s.cfg.maxConns
		var st *connState
		if !atLimit {
			st = &connState{}
			s.conns[conn] = st
			s.pending.Add(1)
		}
		s.mu.Unlock()
		if atLimit {
			s.rejectConn(conn, statusBusy)
			continue
		}
		go func() {
			defer s.pending.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.handle(conn, st); err != nil && !errors.Is(err, io.EOF) &&
				!errors.Is(err, ErrProtocol) && !isClosedConn(err) {
				log.Printf("wire: connection error: %v", err)
			}
		}()
	}
}

// isTemporary reports whether err advertises itself as retryable.
// net.Error.Temporary is deprecated but still what accept errors
// (EMFILE, ECONNABORTED) implement; we treat it as a hint, never as
// proof of permanence.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// rejectConn completes the handshake with a non-OK status so the peer
// gets a clean typed error, then closes. Counted and logged as a
// lifecycle event.
func (s *Server) rejectConn(conn net.Conn, status byte) {
	s.wm.ConnsRejected.Inc()
	s.eng.Events().Emit(trace.Event{
		Kind: trace.EvWireReject, Tick: s.eng.Now(), Name: conn.RemoteAddr().String(),
	})
	conn.SetDeadline(time.Now().Add(s.cfg.idleTimeout))
	_ = writeHello(conn, ProtocolVersion, status)
	conn.Close()
}

// handshake validates the client hello and answers it. It runs under
// the idle deadline so a silent dialer cannot pin the handler.
func (s *Server) handshake(conn net.Conn) error {
	h, err := readHello(conn)
	if err != nil {
		s.wm.HandshakeFailures.Inc()
		s.wm.ConnsRejected.Inc()
		s.eng.Events().Emit(trace.Event{
			Kind: trace.EvWireReject, Tick: s.eng.Now(), Name: conn.RemoteAddr().String(),
		})
		return err
	}
	if h.version != ProtocolVersion {
		s.wm.HandshakeFailures.Inc()
		s.wm.ConnsRejected.Inc()
		_ = writeHello(conn, ProtocolVersion, statusVersion)
		return ErrProtocol
	}
	return writeHello(conn, ProtocolVersion, statusOK)
}

// handle runs one connection's request loop: handshake, then read frame →
// respond → write frame under per-operation deadlines, with panic recovery
// so one bad request cannot kill the process, and a frame byte cap so one
// hostile request cannot exhaust it. One buffer per connection holds the
// request read and then the response written, in a single Write.
func (s *Server) handle(conn net.Conn, st *connState) (err error) {
	requests := int64(0)
	defer func() {
		if r := recover(); r != nil {
			s.wm.PanicsRecovered.Inc()
			s.eng.Events().Emit(trace.Event{
				Kind: trace.EvWirePanic, Tick: s.eng.Now(), Name: conn.RemoteAddr().String(),
			})
			log.Printf("wire: recovered handler panic: %v\n%s", r, debug.Stack())
			err = nil // the panic is contained; the conn is simply closed
		}
		conn.Close()
		s.wm.ActiveConns.Add(-1)
		s.eng.Events().Emit(trace.Event{
			Kind: trace.EvWireConnClose, Tick: s.eng.Now(),
			Name: conn.RemoteAddr().String(), Count: requests,
		})
	}()
	s.wm.ActiveConns.Add(1)

	conn.SetDeadline(time.Now().Add(s.cfg.idleTimeout))
	if err := s.handshake(conn); err != nil {
		return err
	}
	s.wm.ConnsAccepted.Inc()
	s.eng.Events().Emit(trace.Event{
		Kind: trace.EvWireConnOpen, Tick: s.eng.Now(), Name: conn.RemoteAddr().String(),
	})

	limit := s.cfg.maxMsgBytes
	if limit <= 0 || limit > maxFrame {
		limit = maxFrame
	}
	var buf []byte
	sess := sql.NewSessionWithMetrics(s.eng, nil, s.sqlm)
	for {
		conn.SetDeadline(time.Now().Add(s.cfg.idleTimeout))
		if buf, err = readFrame(conn, buf, limit); err != nil {
			if errors.Is(err, ErrTooLarge) {
				s.wm.OversizedRejected.Inc()
				s.eng.Events().Emit(trace.Event{
					Kind: trace.EvWireReject, Tick: s.eng.Now(), Name: conn.RemoteAddr().String(),
				})
			}
			return s.noteTimeout(err)
		}
		req, err := decodeRequest(buf)
		if err != nil {
			return err
		}
		s.wm.MessagesReceived.Inc()
		s.wm.BytesReceived.Add(int64(4 + len(buf)))
		if req.Kind == MsgClose {
			return nil
		}
		st.inFlight.Store(true)
		s.mu.Lock()
		hook := s.testRespondHook
		s.mu.Unlock()
		if hook != nil {
			hook(&req)
		}
		resp := s.respond(sess, &req)
		if buf = appendResponse(buf[:0], resp); len(buf)-4 > maxFrame {
			buf = appendResponse(buf[:0], &Response{Now: resp.Now, TraceID: resp.TraceID,
				Err: fmt.Sprintf("wire: a %d-byte response exceeds the %d-byte frame cap", len(buf)-4, maxFrame)})
		}
		conn.SetDeadline(time.Now().Add(s.cfg.idleTimeout))
		if _, err := conn.Write(buf); err != nil {
			st.inFlight.Store(false)
			return s.noteTimeout(err)
		}
		st.inFlight.Store(false)
		requests++
		s.wm.RequestsServed.Inc()
		s.wm.MessagesSent.Inc()
		s.wm.BytesSent.Add(int64(len(buf)))
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if closing {
			// A graceful shutdown drained this request; exit instead of
			// waiting for another that will never be allowed to finish.
			return nil
		}
	}
}

// noteTimeout counts deadline expiries (distinct from peer hangups) and
// passes the error through.
func (s *Server) noteTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.wm.Timeouts.Inc()
		s.eng.Events().Emit(trace.Event{Kind: trace.EvWireTimeout, Tick: s.eng.Now()})
	}
	return err
}

func (s *Server) respond(sess *sql.Session, req *Request) *Response {
	resp := &Response{Now: s.eng.Now()}
	switch req.Kind {
	case MsgTime:
	case MsgMaterialize:
		// Adopt the client's trace ID (or mint one) so server-side
		// lifecycle events and the echoed Response carry the same
		// correlation key.
		tid := trace.ID(req.TraceID)
		if tid == 0 {
			tid = trace.NextID()
		}
		resp.TraceID = uint64(tid)
		sess.SetTrace(tid)
		start := time.Now()
		err := s.materialize(sess, req, resp)
		s.sqlm.Record(sql.StmtSelect, time.Since(start), err)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		s.eng.Events().Emit(trace.Event{
			Trace: tid, Kind: trace.EvWireMaterialize, Name: req.Query,
			Tick: resp.Now, Texp: resp.Texp, Count: int64(resp.rel.CountAt(resp.Now)),
		})
	default:
		resp.Err = "wire: unknown request kind"
	}
	return resp
}

// materialize answers one MsgMaterialize into resp. The plan is the one
// the session's pipeline gives every read path: the physical tree runs (a
// point query probes its index), under the logical key, and is made only
// when the result cache cannot answer.
func (s *Server) materialize(sess *sql.Session, req *Request, resp *Response) error {
	sel, err := sql.ParseQuery(req.Query)
	if err != nil {
		return err
	}
	// The clock advances while the server answers, so a plan over a view
	// can expire before it is evaluated: the session then makes it again,
	// against the view's new answer.
	return sess.PlanAndRun(sel, func(plan sql.Plan) error { return s.evaluate(sess, &plan, req, resp) })
}

// evaluate runs plan and leaves the answer in resp: the relation whose rows
// alive at resp.Now travel, and the births when wanted. A plan that expired
// first is reported the way sql.Session.Query reports it, by an error
// matching view.ErrInvalid, with resp untouched.
func (s *Server) evaluate(sess *sql.Session, plan *sql.Plan, req *Request, resp *Response) error {
	var rel *relation.Relation
	// HasFuture reads only the root, and a lowering's root is its physical
	// plan's: SQL puts a WHERE under any set operation, so pushdown moves no
	// σ past the root, and the optimiser keeps it.
	if !req.WantPatches || !algebra.HasFuture(plan.Logical) {
		// Without births (none wanted, or a root whose future is not
		// determined) a materialisation goes through the validity-interval
		// result cache: a repeated remote query costs zero re-evaluation while
		// its window holds. A copy that keeps its future takes the dedicated
		// path below — its texp folds the budget, per-request and uncacheable.
		qr, err := sess.Query(plan)
		if err != nil {
			return err
		}
		rel, resp.Now, resp.Texp, resp.Cached = qr.Rel, qr.At, qr.Validity.ValidUntil, qr.Cached
	} else {
		// Under the table locks the rows, texp(e) and births are one
		// consistent snapshot even while the server's clock advances
		// concurrently. The optimiser keeps the root's shape, so they are
		// still there to ship.
		phys := sess.Physical(plan)
		var ev algebra.Evaluation
		err := s.eng.Inspect(phys, func(at xtime.Time) (err error) {
			if at >= plan.Until {
				return fmt.Errorf("wire: plan expired: it reads a view snapshot valid until %s and the clock is at %s: %w",
					plan.Until, at, view.ErrInvalid)
			}
			ev, err = algebra.Materialize(phys, at)
			return err
		})
		if err != nil {
			return err
		}
		// Ship the births, soonest first; a budget keeps the earliest and
		// pulls Texp back to the first that did not fit (§3.4.2).
		ev.Budget(req.PatchBudget)
		rel, resp.Now, resp.Texp, resp.births = ev.Rel, ev.At, xtime.Min(ev.Texp, plan.Until), ev.Births
	}
	// A relation is a set and the client rebuilds one: no order is owed.
	resp.rel = rel
	return nil
}
