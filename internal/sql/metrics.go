package sql

import (
	"time"

	"expdb/internal/metrics"
)

// StmtKind classifies statements for metrics. The zero kind is Other so
// an unrecognised statement still lands somewhere.
type StmtKind int

const (
	StmtOther StmtKind = iota
	StmtSelect
	StmtInsert
	StmtDelete
	StmtCreateTable
	StmtDropTable
	StmtCreateView
	StmtCreateTrigger
	StmtAdvance
	StmtSet
	StmtShow
	StmtRefresh
	StmtExplain
	StmtCreateIndex
	StmtDropIndex
	numStmtKinds
)

var stmtKindNames = [numStmtKinds]string{
	"other", "select", "insert", "delete", "create_table", "drop_table",
	"create_view", "create_trigger", "advance", "set", "show", "refresh",
	"explain", "create_index", "drop_index",
}

func (k StmtKind) String() string {
	if k < 0 || k >= numStmtKinds {
		return "other"
	}
	return stmtKindNames[k]
}

// kindOf maps a parsed statement to its metrics class.
func kindOf(stmt Statement) StmtKind {
	switch stmt.(type) {
	case *Select:
		return StmtSelect
	case *Insert:
		return StmtInsert
	case *Delete:
		return StmtDelete
	case *CreateTable:
		return StmtCreateTable
	case *DropTable:
		return StmtDropTable
	case *CreateView:
		return StmtCreateView
	case *CreateTrigger:
		return StmtCreateTrigger
	case *AdvanceTo:
		return StmtAdvance
	case *SetPolicy:
		return StmtSet
	case *Show:
		return StmtShow
	case *RefreshView:
		return StmtRefresh
	case *Explain:
		return StmtExplain
	case *CreateIndex:
		return StmtCreateIndex
	case *DropIndex:
		return StmtDropIndex
	default:
		return StmtOther
	}
}

// Metrics counts SQL activity: statements by kind, errors, and parse/exec
// latency distributions. All updates are single atomic operations, so one
// Metrics value may be shared across sessions (the wire server hands every
// connection the same one).
type Metrics struct {
	Statements [numStmtKinds]metrics.Counter
	ParseErrs  metrics.Counter
	ExecErrs   metrics.Counter
	// MemoHits counts statements taken from the session's statement memo,
	// which parse nothing: ParseNanos times real parses only.
	MemoHits   metrics.Counter
	ParseNanos metrics.Histogram
	ExecNanos  metrics.Histogram
}

// MetricsSnapshot is a point-in-time copy shaped for JSON export.
type MetricsSnapshot struct {
	Statements map[string]int64          `json:"statements,omitempty"`
	ParseErrs  int64                     `json:"parse_errors"`
	ExecErrs   int64                     `json:"exec_errors"`
	MemoHits   int64                     `json:"plan_memo_hits"`
	ParseNanos metrics.HistogramSnapshot `json:"parse_nanos"`
	ExecNanos  metrics.HistogramSnapshot `json:"exec_nanos"`
}

// Record counts one statement of kind that ran for d and failed with err
// (nil on success): Exec and the wire server's reads record here.
func (m *Metrics) Record(kind StmtKind, d time.Duration, err error) {
	m.Statements[kind].Inc()
	m.ExecNanos.Observe(d.Nanoseconds())
	if err != nil {
		m.ExecErrs.Inc()
	}
}

// Snapshot copies the counters. Kinds with a zero count are omitted so the
// JSON stays readable.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		ParseErrs:  m.ParseErrs.Load(),
		ExecErrs:   m.ExecErrs.Load(),
		MemoHits:   m.MemoHits.Load(),
		ParseNanos: m.ParseNanos.Snapshot(),
		ExecNanos:  m.ExecNanos.Snapshot(),
	}
	for k := StmtKind(0); k < numStmtKinds; k++ {
		if n := m.Statements[k].Load(); n > 0 {
			if s.Statements == nil {
				s.Statements = make(map[string]int64)
			}
			s.Statements[k.String()] = n
		}
	}
	return s
}
