// Package faultconn is a deterministic fault-injection harness for the
// wire layer: a net.Conn wrapper (and a matching net.Listener wrapper)
// that injects drops, failures, truncated writes and one-way partitions on
// command. Every fault is scripted explicitly — nothing is random — so a
// failure mode reproduces identically on every run.
//
// The wrappers compose with the real TCP stack rather than replacing it:
// tests dial a real loopback server through a Conn and then flip faults
// on the live connection, which exercises exactly the code paths a real
// partition would (blocked reads hitting deadlines, writes vanishing
// into a black hole, accept loops seeing transient errors).
package faultconn

import (
	"errors"
	"net"
	"sync"
)

// ErrInjected is the base error returned by scripted hard failures.
var ErrInjected = errors.New("faultconn: injected fault")

// Conn wraps a net.Conn with scriptable faults. The zero-fault wrapper
// is transparent. All methods are safe for concurrent use with the
// connection's own I/O, so a test can flip a partition while the client
// is mid-read.
type Conn struct {
	net.Conn

	mu sync.Mutex
	// dropOutbound black-holes writes: they report success but no bytes
	// reach the peer — one half of a one-way partition, as seen by the
	// writing side.
	dropOutbound bool
	// dropInbound discards everything the peer sends: reads consume the
	// inner stream but never return data, so the reader blocks until its
	// own deadline — the other half of a one-way partition.
	dropInbound bool
	// failReadsAfter/failWritesAfter fail the nth subsequent operation
	// and every one after it (0 = fail immediately; -1 = disabled).
	failReadsAfter  int
	failWritesAfter int
	// truncateNextWrite cuts the next write short after n bytes and
	// fails it — a connection dying mid-message, leaving the peer a
	// half-read frame (-1 = disabled).
	truncateNextWrite int
}

// Wrap decorates inner with a fault script. With no faults set it is a
// transparent pass-through.
func Wrap(inner net.Conn) *Conn {
	return &Conn{Conn: inner, failReadsAfter: -1, failWritesAfter: -1, truncateNextWrite: -1}
}

// Dial connects to addr over TCP and wraps the connection.
func Dial(addr string) (*Conn, error) {
	inner, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Wrap(inner), nil
}

// PartitionOutbound starts or heals the outbound half of a partition:
// while on, writes succeed locally but never arrive.
func (c *Conn) PartitionOutbound(on bool) {
	c.mu.Lock()
	c.dropOutbound = on
	c.mu.Unlock()
}

// PartitionInbound starts or heals the inbound half of a partition:
// while on, nothing the peer sends is delivered; reads block until their
// deadline.
func (c *Conn) PartitionInbound(on bool) {
	c.mu.Lock()
	c.dropInbound = on
	c.mu.Unlock()
}

// Partition cuts or heals both directions at once.
func (c *Conn) Partition(on bool) {
	c.mu.Lock()
	c.dropOutbound, c.dropInbound = on, on
	c.mu.Unlock()
}

// FailReadsAfter makes the nth subsequent read (0-indexed) and every
// later read fail with ErrInjected. n < 0 disables.
func (c *Conn) FailReadsAfter(n int) {
	c.mu.Lock()
	c.failReadsAfter = n
	c.mu.Unlock()
}

// FailWritesAfter makes the nth subsequent write and every later write
// fail with ErrInjected. n < 0 disables.
func (c *Conn) FailWritesAfter(n int) {
	c.mu.Lock()
	c.failWritesAfter = n
	c.mu.Unlock()
}

// TruncateNextWrite makes the next write deliver only its first n bytes
// and then fail — the peer is left holding a torn message.
func (c *Conn) TruncateNextWrite(n int) {
	c.mu.Lock()
	c.truncateNextWrite = n
	c.mu.Unlock()
}

// Read implements net.Conn with the scripted read faults.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	fail := c.failReadsAfter == 0
	if c.failReadsAfter > 0 {
		c.failReadsAfter--
	}
	c.mu.Unlock()
	if fail {
		return 0, &net.OpError{Op: "read", Net: "faultconn", Err: ErrInjected}
	}
	for {
		n, err := c.Conn.Read(p)
		c.mu.Lock()
		drop := c.dropInbound
		c.mu.Unlock()
		if !drop || err != nil {
			return n, err
		}
		// Inbound partition: swallow the delivered bytes and keep
		// reading, so the caller blocks until its own deadline fails the
		// inner read — exactly how lost packets present to the reader.
	}
}

// Write implements net.Conn with the scripted write faults.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fail := c.failWritesAfter == 0
	if c.failWritesAfter > 0 {
		c.failWritesAfter--
	}
	drop := c.dropOutbound
	trunc := c.truncateNextWrite
	c.truncateNextWrite = -1
	c.mu.Unlock()
	if fail {
		return 0, &net.OpError{Op: "write", Net: "faultconn", Err: ErrInjected}
	}
	if trunc >= 0 {
		if trunc > len(p) {
			trunc = len(p)
		}
		if !drop {
			if n, err := c.Conn.Write(p[:trunc]); err != nil {
				return n, err
			}
		}
		return trunc, &net.OpError{Op: "write", Net: "faultconn", Err: ErrInjected}
	}
	if drop {
		return len(p), nil // vanished into the partition
	}
	return c.Conn.Write(p)
}

// tempError is a net.Error that reports itself temporary, as transient
// accept failures (ECONNABORTED, EMFILE) do.
type tempError struct{}

func (tempError) Error() string   { return "faultconn: injected temporary error" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }

// Listener wraps a net.Listener: it can inject temporary accept errors
// (to exercise accept-loop retry paths) and decorates every accepted
// connection with Wrap, handing each to an optional OnAccept hook so the
// test can keep a handle for later fault flips.
type Listener struct {
	net.Listener

	mu          sync.Mutex
	tempErrs    int
	onAccept    func(*Conn)
	acceptCalls int
}

// NewListener wraps ln. onAccept (optional) observes every accepted,
// fault-wrapped connection.
func NewListener(ln net.Listener, onAccept func(*Conn)) *Listener {
	return &Listener{Listener: ln, onAccept: onAccept}
}

// FailNextAccepts makes the next n Accept calls return a temporary
// net.Error before real accepting resumes.
func (l *Listener) FailNextAccepts(n int) {
	l.mu.Lock()
	l.tempErrs = n
	l.mu.Unlock()
}

// AcceptCalls reports how many times Accept has been invoked (including
// the injected failures) — proof that a retry loop kept trying.
func (l *Listener) AcceptCalls() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acceptCalls
}

// Accept implements net.Listener with the scripted faults.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.acceptCalls++
	if l.tempErrs > 0 {
		l.tempErrs--
		l.mu.Unlock()
		return nil, tempError{}
	}
	hook := l.onAccept
	l.mu.Unlock()
	inner, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := Wrap(inner)
	if hook != nil {
		hook(fc)
	}
	return fc, nil
}
