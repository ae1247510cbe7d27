// Package trace provides the per-operation observability primitives the
// engine and SQL layers share: trace IDs that tie a statement to the
// lifecycle events it causes, span trees with monotonic wall-clock
// timings for slow-query analysis, and the fixed-capacity Ring that keeps
// the most recent lifecycle events (see events.go) and slow-query Traces.
//
// The package is stdlib-only and allocation-conscious: emitting an event
// into a Ring never allocates (the ring is preallocated and events are
// plain values), and every Span method is a no-op on a nil receiver, so
// disabled tracing costs a nil check and nothing else.
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"expdb/internal/xtime"
)

// ID identifies one traced operation — usually a SQL statement — and
// propagates from the session through the engine into view maintenance,
// so SHOW EVENTS can say which statement caused which recomputation.
// ID 0 means "untraced"; emitters mint a fresh ID in its place so every
// recorded event carries a usable correlation key.
type ID uint64

var lastID atomic.Uint64

// NextID returns a fresh process-unique trace ID. It is a single atomic
// add: cheap enough to call unconditionally per statement.
func NextID() ID { return ID(lastID.Add(1)) }

// String renders the ID in the fixed-width hex form used by EXPLAIN
// ANALYZE output and the slow-query log.
func (id ID) String() string { return fmt.Sprintf("%08x", uint64(id)) }

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed step of a traced statement. Spans form a tree built
// by a single goroutine (the session executing the statement), so they
// carry no locks; share a finished tree, never a live one.
//
// All methods are nil-safe no-ops, so callers thread a possibly-nil
// *Span through their code without guarding every touch point.
type Span struct {
	Name     string        `json:"name"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Dur      time.Duration `json:"dur_ns"`
	Children []*Span       `json:"children,omitempty"`

	start time.Time
}

// Begin starts a root span.
func Begin(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// Child starts and attaches a sub-span. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := Begin(name)
	s.Children = append(s.Children, c)
	return c
}

// End stops the span's clock. Repeated calls keep the first duration.
func (s *Span) End() {
	if s != nil && s.Dur == 0 {
		s.Dur = time.Since(s.start)
	}
}

// Set attaches a key=value annotation.
func (s *Span) Set(key, value string) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
}

// Render writes the span tree in the box-drawing style EXPLAIN uses.
func (s *Span) Render(sb *strings.Builder, prefix, childPrefix string) {
	if s == nil {
		return
	}
	sb.WriteString(prefix)
	sb.WriteString(s.Name)
	fmt.Fprintf(sb, " [%s]", s.Dur)
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	for i, c := range s.Children {
		if i == len(s.Children)-1 {
			c.Render(sb, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.Render(sb, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// String renders the span tree.
func (s *Span) String() string {
	var sb strings.Builder
	s.Render(&sb, "", "")
	return sb.String()
}

// Trace is the record of one completed slow statement: the statement
// text, the logical tick it ran at, its span tree, and the total wall
// time. Traces are immutable once stored.
type Trace struct {
	ID    ID            `json:"id"`
	Stmt  string        `json:"stmt"`
	Tick  xtime.Time    `json:"tick"`
	Total time.Duration `json:"total_ns"`
	Root  *Span         `json:"spans"`
}

// String renders the trace header plus its span tree.
func (t Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s at t=%v [%s]: %s\n", t.ID, t.Tick, t.Total, t.Stmt)
	t.Root.Render(&sb, "  ", "  ")
	return sb.String()
}
