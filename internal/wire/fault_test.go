package wire

// Fault-injection suite: every failure mode the wire layer claims to
// survive is reproduced deterministically through the faultconntest harness
// — partitions, truncated writes, server restarts, oversized and
// malformed messages, handler panics, accept-loop hiccups — and each
// test asserts both the behaviour (degraded-but-valid reads, clean
// rejections) and its observability (Client.State, wire metrics, trace
// events).

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"expdb/internal/trace"
	"expdb/internal/wire/faultconntest"
	"expdb/internal/xtime"
)

// fastOpts are client options tuned so failure paths resolve in
// milliseconds while staying on the real backoff code.
func fastOpts(extra ...ClientOption) []ClientOption {
	opts := []ClientOption{
		WithRequestTimeout(200 * time.Millisecond),
		WithDialTimeout(time.Second),
		WithBackoff(time.Millisecond, 4*time.Millisecond, 3),
		WithJitterSeed(7),
	}
	return append(opts, extra...)
}

// partitionDialer routes every dial through faultconntest and lets the test
// cut or heal the network for all existing and future connections at
// once — a full one-way (or two-way) partition of this client.
type partitionDialer struct {
	mu          sync.Mutex
	partitioned bool
	conns       []*faultconntest.Conn
}

func (p *partitionDialer) dial(addr string) (net.Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.partitioned {
		return nil, errors.New("faultconntest: dial lost in partition")
	}
	fc, err := faultconntest.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.conns = append(p.conns, fc)
	return fc, nil
}

func (p *partitionDialer) setPartition(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitioned = on
	for _, fc := range p.conns {
		fc.Partition(on)
	}
}

// TestPartitionDegradedReads is the acceptance scenario: during a
// partition, every Read(tau) with tau < texp succeeds from the local
// copy — zero errors, zero rematerialisations, zero round trips — and
// the first read past texp triggers reconnect-with-backoff, observable
// via Client.State and the retry counters. Healing the partition
// restores full service.
func TestPartitionDegradedReads(t *testing.T) {
	eng, _, addr := startServer(t)
	pd := &partitionDialer{}
	c, err := Dial(addr, fastOpts(WithDialer(pd.dial))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// texp = 3: el's ⟨2⟩ expires at 3 and re-enters the difference.
	if err := c.Materialize("SELECT uid FROM pol EXCEPT SELECT uid FROM el", false); err != nil {
		t.Fatal(err)
	}
	if c.Texp() != 3 {
		t.Fatalf("texp = %v, want 3", c.Texp())
	}

	// The network goes away entirely: in-flight connection black-holed
	// in both directions, new dials fail.
	pd.setPartition(true)

	// Every read inside the validity window is answered locally, with
	// no errors and no traffic — the paper's validity guarantee doing
	// availability work.
	for tau := xtime.Time(0); tau < 3; tau++ {
		rel, err := c.Read(tau)
		if err != nil {
			t.Fatalf("read at %v during partition: %v", tau, err)
		}
		if rel.CountAt(tau) == 0 {
			t.Fatalf("read at %v returned no rows", tau)
		}
	}
	if c.Rematerializations != 0 {
		t.Fatalf("valid-window reads re-fetched %d times during partition", c.Rematerializations)
	}
	if got := c.Stats().MessagesSent; got != 1 {
		t.Fatalf("messages sent = %d, want 1 (the materialisation only)", got)
	}

	// A direct server call proves the server really is unreachable, and
	// flips the client to degraded.
	if _, err := c.ServerTime(); err == nil {
		t.Fatal("ServerTime succeeded through a partition")
	}
	if c.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded", c.State())
	}
	if c.ReconnectAttempts == 0 || c.ReconnectFailures == 0 {
		t.Fatalf("reconnect attempts/failures = %d/%d, want > 0 (backoff ran)",
			c.ReconnectAttempts, c.ReconnectFailures)
	}

	// Degraded reads inside the window still succeed and are counted.
	if _, err := c.Read(2); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if c.DegradedReads != 1 {
		t.Fatalf("DegradedReads = %d, want 1", c.DegradedReads)
	}
	if c.Rematerializations != 0 {
		t.Fatal("degraded read re-fetched")
	}

	// First read past texp: the copy is invalid, so the client must
	// reconnect — and with the partition still up, every backoff attempt
	// fails and the read surfaces ErrDegraded.
	attemptsBefore := c.ReconnectAttempts
	if _, err := c.Read(3); !errors.Is(err, ErrDegraded) {
		t.Fatalf("read past texp during partition: err = %v, want ErrDegraded", err)
	}
	if c.ReconnectAttempts != attemptsBefore+3 {
		t.Fatalf("reconnect attempts = %d, want %d (maxRetries more)",
			c.ReconnectAttempts, attemptsBefore+3)
	}

	// Heal the partition: the same read now reconnects and
	// re-materialises.
	pd.setPartition(false)
	if err := eng.Advance(3); err != nil {
		t.Fatal(err)
	}
	rel, err := c.Read(3)
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if got := rel.CountAt(3); got != 2 {
		t.Fatalf("rows after heal = %d, want 2 (uids 2, 3)", got)
	}
	if c.State() != StateConnected {
		t.Fatalf("state after heal = %v, want connected", c.State())
	}
	if c.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", c.Reconnects)
	}
	if c.Rematerializations != 1 {
		t.Fatalf("Rematerializations = %d, want 1", c.Rematerializations)
	}
}

// TestClientReconnectAfterServerRestart: a full server restart drops the
// connection; the client must handshake with the new process and carry on
// there.
func TestClientReconnectAfterServerRestart(t *testing.T) {
	eng, srv, addr := startServer(t)
	c, err := Dial(addr, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol EXCEPT SELECT uid FROM el", false); err != nil {
		t.Fatal(err)
	}
	_ = eng

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on the same address with the same data, clock at 5.
	eng2, _, _ := startServerAddr(t, addr)
	if err := eng2.Advance(5); err != nil {
		t.Fatal(err)
	}

	// Past texp=3 the copy is invalid: the read must ride a reconnect to
	// the new process and succeed.
	rel, err := c.Read(5)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	// Diff at 5: uid 3 (pol, until 10) and uid 2 (el's ⟨2⟩ gone at 3,
	// pol's until 15) and uid 1 (el's ⟨1⟩ gone at 5, pol's until 10).
	if got := rel.CountAt(5); got != 3 {
		t.Fatalf("rows after restart = %d, want 3", got)
	}
	if c.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", c.Reconnects)
	}
	if c.State() != StateConnected {
		t.Fatalf("state = %v, want connected", c.State())
	}
}

// TestServerShutdownDrainsInflight: Shutdown waits for an in-flight
// request to finish (the drain), and the request completes successfully.
func TestServerShutdownDrainsInflight(t *testing.T) {
	_, srv, addr := startServer(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.setRespondHook(func(*Request) {
		close(entered)
		<-release
	})
	c, err := Dial(addr, WithRequestTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	matErr := make(chan error, 1)
	go func() { matErr <- c.Materialize("SELECT uid FROM pol", false) }()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-matErr; err != nil {
		t.Fatalf("in-flight request failed during graceful drain: %v", err)
	}
}

// TestServerShutdownHardClosesStragglers: a handler that will not drain
// is hard-closed when the deadline passes, and Shutdown still returns.
func TestServerShutdownHardClosesStragglers(t *testing.T) {
	eng, srv, addr := startServer(t)
	release := make(chan struct{})
	entered := make(chan struct{})
	srv.setRespondHook(func(*Request) {
		close(entered)
		<-release
	})
	c, err := Dial(addr, WithRequestTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	matErr := make(chan error, 1)
	go func() { matErr <- c.Materialize("SELECT uid FROM pol", false) }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown took %v despite expired drain deadline", took)
	}
	// The straggler was hard-closed and the shutdown event says so.
	var found bool
	for _, ev := range eng.Events().Snapshot(0) {
		if ev.Kind == trace.EvWireShutdown && ev.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no wire-shutdown event with straggler count 1")
	}
	close(release)
	if err := <-matErr; err == nil {
		t.Fatal("hard-closed request reported success")
	}
}

// TestOversizedMessageRejected: the frame byte cap refuses a huge
// message by its length header, counts it, and drops the connection; the
// sender sees a failed round trip, not a wedged server.
func TestOversizedMessageRejected(t *testing.T) {
	eng, srv := newTestServer(t, WithMaxMessageBytes(4096))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	_ = eng
	c, err := Dial(bound, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := make([]byte, 64<<10)
	for i := range huge {
		huge[i] = 'x'
	}
	if err := c.Materialize("SELECT uid FROM pol WHERE uid = "+string(huge), false); err == nil {
		t.Fatal("oversized request succeeded")
	}
	if got := srv.WireMetrics().OversizedRejected; got < 1 {
		t.Fatalf("OversizedRejected = %d, want >= 1", got)
	}
	// The server survives: a fresh client works.
	c2, err := Dial(bound, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.ServerTime(); err != nil {
		t.Fatalf("server unusable after oversized rejection: %v", err)
	}
}

// TestHandshakeGarbageServer: dialing something that is not an expdb
// server yields ErrProtocol, not a frame decode error.
func TestHandshakeGarbageServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n"))
			conn.Close()
		}
	}()
	_, err = Dial(ln.Addr().String(), fastOpts()...)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("dial of non-expdb server: err = %v, want ErrProtocol", err)
	}
}

// TestHandshakeGarbageClient: a peer that writes garbage at the server
// is rejected at the handshake, counted, and never has a frame read.
func TestHandshakeGarbageClient(t *testing.T) {
	_, srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GARBAGE!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a garbage handshake")
	}
	waitFor(t, func() bool { return srv.WireMetrics().HandshakeFailures == 1 })
}

// TestHandshakeVersionMismatch: a future-versioned client is told the
// server's version in a clean statusVersion reply.
func TestHandshakeVersionMismatch(t *testing.T) {
	_, srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, ProtocolVersion+57, statusOK); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	h, err := readHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h.status != statusVersion || h.version != ProtocolVersion {
		t.Fatalf("reply = version %d status %d, want version %d status %d",
			h.version, h.status, ProtocolVersion, statusVersion)
	}
	waitFor(t, func() bool { return srv.WireMetrics().HandshakeFailures == 1 })
}

// TestConnLimitRejection: the connection cap turns excess dials away
// with ErrServerBusy at handshake time, and counts them.
func TestConnLimitRejection(t *testing.T) {
	eng, srv := newTestServer(t, WithMaxConns(1))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	_ = eng
	c1, err := Dial(bound, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Dial(bound, fastOpts(WithBackoff(time.Millisecond, time.Millisecond, 1))...); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("dial over the limit: err = %v, want ErrServerBusy", err)
	}
	if got := srv.WireMetrics().ConnsRejected; got != 1 {
		t.Fatalf("ConnsRejected = %d, want 1", got)
	}
	// Freeing the slot re-opens the door.
	c1.Close()
	waitFor(t, func() bool { return srv.WireMetrics().ActiveConns == 0 })
	c2, err := Dial(bound, fastOpts()...)
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c2.Close()
}

// TestAcceptLoopRetriesTemporaryErrors: transient accept failures are
// retried with backoff instead of killing the accept loop.
func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	eng, srv := newTestServer(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultconntest.NewListener(inner, nil)
	fl.FailNextAccepts(3)
	srv.Serve(fl)
	t.Cleanup(func() { srv.Close() })
	_ = eng
	c, err := Dial(inner.Addr().String(), fastOpts()...)
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	defer c.Close()
	if _, err := c.ServerTime(); err != nil {
		t.Fatal(err)
	}
	if got := srv.WireMetrics().AcceptRetries; got != 3 {
		t.Fatalf("AcceptRetries = %d, want 3", got)
	}
	if calls := fl.AcceptCalls(); calls < 4 {
		t.Fatalf("accept calls = %d, want >= 4", calls)
	}
}

// TestIdleTimeoutClosesConnection: a silent peer is disconnected at the
// idle deadline; the well-behaved client then reconnects transparently.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	eng, srv := newTestServer(t, WithIdleTimeout(50*time.Millisecond))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	_ = eng
	c, err := Dial(bound, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, func() bool { return srv.WireMetrics().Timeouts >= 1 })
	// The next round trip rides a reconnect and succeeds.
	if _, err := c.ServerTime(); err != nil {
		t.Fatalf("round trip after idle disconnect: %v", err)
	}
	if c.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", c.Reconnects)
	}
}

// TestPanicRecovery: a handler panic is contained to its connection —
// counted, logged as an event, and the accept loop keeps serving.
func TestPanicRecovery(t *testing.T) {
	eng, srv, addr := startServer(t)
	srv.setRespondHook(func(req *Request) {
		if req.Kind == MsgMaterialize {
			panic("injected handler panic")
		}
	})
	c, err := Dial(addr, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol", false); err == nil {
		t.Fatal("request served by a panicking handler")
	}
	waitFor(t, func() bool { return srv.WireMetrics().PanicsRecovered >= 1 })
	var found bool
	for _, ev := range eng.Events().Snapshot(0) {
		if ev.Kind == trace.EvWirePanic {
			found = true
		}
	}
	if !found {
		t.Fatal("no wire-panic event emitted")
	}
	// One bad request must not kill the accept loop.
	srv.setRespondHook(nil)
	c2, err := Dial(addr, fastOpts()...)
	if err != nil {
		t.Fatalf("server dead after handler panic: %v", err)
	}
	defer c2.Close()
	if err := c2.Materialize("SELECT uid FROM pol", false); err != nil {
		t.Fatalf("server unusable after handler panic: %v", err)
	}
}

// TestTruncatedWriteReconnect: a connection dying mid-message leaves the
// peer a torn frame; the client recovers by reconnecting and retrying.
func TestTruncatedWriteReconnect(t *testing.T) {
	eng, _, addr := startServer(t)
	if err := eng.Advance(4); err != nil {
		t.Fatal(err)
	}
	pd := &partitionDialer{}
	c, err := Dial(addr, fastOpts(WithDialer(pd.dial))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pd.mu.Lock()
	fc := pd.conns[len(pd.conns)-1]
	pd.mu.Unlock()
	fc.TruncateNextWrite(3)
	now, err := c.ServerTime()
	if err != nil {
		t.Fatalf("round trip after truncated write: %v", err)
	}
	if now != 4 {
		t.Fatalf("server time = %v, want 4", now)
	}
	if c.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1", c.Reconnects)
	}
}

// TestContextCancelInterruptsRoundTrip: a cancelled context fails the
// in-flight round trip promptly instead of waiting out the timeout.
func TestContextCancelInterruptsRoundTrip(t *testing.T) {
	_, srv, addr := startServer(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	srv.setRespondHook(func(*Request) { <-release })
	c, err := Dial(addr, WithRequestTimeout(time.Minute), WithBackoff(time.Millisecond, time.Millisecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.ServerTimeContext(ctx)
	if err == nil {
		t.Fatal("cancelled round trip succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancellation took %v to interrupt the round trip", took)
	}
	if c.State() != StateDegraded {
		t.Fatalf("state = %v, want degraded after interrupted round trip", c.State())
	}
}

// TestFaultStressReconnectCycles drives many partition/heal cycles in a
// row — the timing-dependent paths (backoff, deadline, degrade,
// reconnect) under -race. Gated behind EXPDB_FAULT_STRESS so the
// everyday suite stays fast; CI sets it.
func TestFaultStressReconnectCycles(t *testing.T) {
	if os.Getenv("EXPDB_FAULT_STRESS") == "" {
		t.Skip("set EXPDB_FAULT_STRESS=1 to run")
	}
	eng, _, addr := startServer(t)
	pd := &partitionDialer{}
	c, err := Dial(addr, fastOpts(WithDialer(pd.dial), WithRequestTimeout(50*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Materialize("SELECT uid FROM pol", false); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 25; cycle++ {
		pd.setPartition(true)
		if _, err := c.ServerTime(); err == nil {
			t.Fatalf("cycle %d: round trip crossed a partition", cycle)
		}
		if c.State() != StateDegraded {
			t.Fatalf("cycle %d: state = %v, want degraded", cycle, c.State())
		}
		if _, err := c.Read(0); err != nil {
			t.Fatalf("cycle %d: degraded read failed: %v", cycle, err)
		}
		pd.setPartition(false)
		if _, err := c.ServerTime(); err != nil {
			t.Fatalf("cycle %d: round trip after heal: %v", cycle, err)
		}
		if c.State() != StateConnected {
			t.Fatalf("cycle %d: state = %v, want connected", cycle, c.State())
		}
	}
	if c.Reconnects < 25 {
		t.Fatalf("Reconnects = %d, want >= 25", c.Reconnects)
	}
	_ = eng
}

// waitFor polls cond for up to 2 seconds — used where a server-side
// counter is updated by a handler goroutine after the client already
// observed the network effect.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
