package faultconntest

import (
	"errors"
	"net"
	"testing"
	"time"
)

// pipe returns a wrapped client end and the raw server end of a real
// loopback TCP connection (net.Pipe lacks buffering, which would make
// black-holed writes block instead of vanishing).
func pipe(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		conn net.Conn
		err  error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { client.Close(); a.conn.Close() })
	return client, a.conn
}

func TestTransparentPassThrough(t *testing.T) {
	c, s := pipe(t)
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	s.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := s.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestPartitionOutboundBlackholesWrites(t *testing.T) {
	c, s := pipe(t)
	c.PartitionOutbound(true)
	// The write reports success — the bytes just never arrive.
	if n, err := c.Write([]byte("lost")); err != nil || n != 4 {
		t.Fatalf("write = %d, %v", n, err)
	}
	s.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 4)
	if _, err := s.Read(buf); err == nil {
		t.Fatal("black-holed bytes arrived")
	}
	// Healing restores delivery.
	c.PartitionOutbound(false)
	if _, err := c.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	s.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := s.Read(buf); err != nil || string(buf[:n]) != "back" {
		t.Fatalf("read after heal: %q, %v", buf[:n], err)
	}
}

func TestPartitionInboundDiscardsDeliveries(t *testing.T) {
	c, s := pipe(t)
	c.PartitionInbound(true)
	if _, err := s.Write([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read returned data through an inbound partition")
	}
}

func TestFailWritesAfter(t *testing.T) {
	c, _ := pipe(t)
	c.FailWritesAfter(2)
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := c.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write err = %v, want ErrInjected", err)
	}
	// And every write after it.
	if _, err := c.Write([]byte("still")); !errors.Is(err, ErrInjected) {
		t.Fatalf("later write err = %v, want ErrInjected", err)
	}
}

func TestFailReadsAfter(t *testing.T) {
	c, s := pipe(t)
	if _, err := s.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	c.FailReadsAfter(1)
	c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 2)
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := c.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read err = %v, want ErrInjected", err)
	}
}

func TestTruncateNextWrite(t *testing.T) {
	c, s := pipe(t)
	n, err := c.Write([]byte("abcdef"))
	if err != nil || n != 6 {
		t.Fatalf("clean write = %d, %v", n, err)
	}
	c.TruncateNextWrite(2)
	if n, err := c.Write([]byte("ghijkl")); !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("truncated write = %d, %v; want 2, ErrInjected", n, err)
	}
	// Exactly the truncated prefix arrived.
	s.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	total := 0
	for total < 8 {
		m, err := s.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += m
	}
	if got := string(buf[:total]); got != "abcdefgh" {
		t.Fatalf("peer saw %q, want %q", got, "abcdefgh")
	}
	// The fault is one-shot: the next write is clean again.
	if _, err := c.Write([]byte("mn")); err != nil {
		t.Fatalf("write after truncation: %v", err)
	}
}

func TestListenerInjectsTemporaryErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wrapped []*Conn
	ln := NewListener(inner, func(c *Conn) { wrapped = append(wrapped, c) })
	defer ln.Close()
	ln.FailNextAccepts(2)
	for i := 0; i < 2; i++ {
		_, err := ln.Accept()
		var ne net.Error
		if !errors.As(err, &ne) || ne.Timeout() {
			t.Fatalf("accept %d: err = %v, want temporary net.Error", i, err)
		}
		var te interface{ Temporary() bool }
		if !errors.As(err, &te) || !te.Temporary() {
			t.Fatalf("accept %d error is not Temporary: %v", i, err)
		}
	}
	go func() {
		c, err := net.Dial("tcp", inner.Addr().String())
		if err == nil {
			c.Close()
		}
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if len(wrapped) != 1 {
		t.Fatalf("OnAccept saw %d conns, want 1", len(wrapped))
	}
	if ln.AcceptCalls() != 3 {
		t.Fatalf("AcceptCalls = %d, want 3", ln.AcceptCalls())
	}
}
