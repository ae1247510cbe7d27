package sql

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"expdb/internal/algebra"
	"expdb/internal/catalog"
	"expdb/internal/engine"
	"expdb/internal/index"
	"expdb/internal/interval"
	"expdb/internal/monitor"
	"expdb/internal/relation"
	"expdb/internal/trace"
	"expdb/internal/tuple"
	"expdb/internal/view"
	"expdb/internal/xtime"
)

// Result is the outcome of executing one statement.
type Result struct {
	// Rel is the result relation of a query (nil for DDL/DML).
	Rel *relation.Relation
	// ordered holds the visible rows in presentation order when the
	// query had ORDER BY or LIMIT; the underlying result (Rel) remains a
	// set. Read through Rows, which falls back to deterministic key
	// order for plain queries.
	ordered    []relation.Row
	hasOrdered bool
	// At is the engine tick the result reflects.
	At xtime.Time
	// Validity is the result's validity window [At', ValidUntil): the
	// answer was materialised at At' (≤ At for cached results) and — by
	// Theorem 1 and the χ/ν change-point rules — stays correct at every
	// instant before ValidUntil = texp(e). Zero for non-query statements.
	Validity interval.Validity
	// Cached reports the result was answered from a validity-interval
	// result cache entry, as stored, revalidated or patched.
	Cached bool
	// Msg is a human-readable outcome for non-query statements and
	// EXPLAIN.
	Msg string
	// TraceID is the statement's trace ID: the lifecycle events it
	// caused (SHOW EVENTS) and its slow-query trace (SHOW TRACES) carry
	// the same ID.
	TraceID trace.ID
}

// Rows returns the result's visible rows: presentation order when the
// statement had ORDER BY/LIMIT, otherwise the result set in the
// deterministic order RowsSorted defines. Nil for statements without a
// result relation.
//
// The rows are read-only, as their tuples are. When the answer's frozen
// store already is the result — in tuple order, every row alive at At, as a
// cache hit or a view read mostly is — Rows hands out the store's own rows
// (relation.RowsShared), which no later write or ADVANCE changes, and an
// append copies them; otherwise it returns a filtered copy. Rows of an
// ORDER BY/LIMIT result are the caller's own; so is Rel.RowsSorted(At).
func (r *Result) Rows() []relation.Row {
	if r.hasOrdered {
		return r.ordered
	}
	if r.Rel == nil {
		return nil
	}
	return r.Rel.RowsShared(r.At)
}

// Ordered returns the presentation-ordered rows and true when the
// statement carried ORDER BY/LIMIT; ok=false means the result is a plain
// set (read it via Rows or Rel).
func (r *Result) Ordered() ([]relation.Row, bool) { return r.ordered, r.hasOrdered }

// Session executes SQL against an engine. It carries per-session settings
// such as the aggregation expiration policy. A Session is not safe for
// concurrent use; open one per client.
type Session struct {
	eng    *engine.Engine
	policy algebra.AggPolicy
	notify io.Writer // trigger NOTIFY sink; nil discards
	m      *Metrics  // never nil; may be shared across sessions

	// tid and span are the current statement's tracing state, reset per
	// statement. span is nil unless the engine's slow-query log is on,
	// and every trace.Span method is a nil-safe no-op, so disabled
	// tracing costs nothing. Single-goroutine like the Session itself.
	tid  trace.ID
	span *trace.Span
	// actuals maps plan-node strings to observed output cardinalities,
	// harvested from EXPLAIN ANALYZE runs. The cost-based planner prefers
	// them over its selectivity guesses, so analyzing a query teaches the
	// session real cardinalities for subsequent plans.
	actuals map[string]int
	// memo maps SELECT texts to their parse (nil when seen once), so a
	// repeated read skips the parser and, through Select.low, the lowering.
	memo map[string]*Select
}

// NewSession opens a session on eng. Trigger notifications are written to
// notify (pass nil to discard them).
func NewSession(eng *engine.Engine, notify io.Writer) *Session {
	return NewSessionWithMetrics(eng, notify, nil)
}

// NewSessionWithMetrics opens a session that records its activity into m.
// Pass the same Metrics to several sessions to aggregate them (metric
// updates are atomic); pass nil to give the session a private one.
func NewSessionWithMetrics(eng *engine.Engine, notify io.Writer, m *Metrics) *Session {
	if m == nil {
		m = &Metrics{}
	}
	return &Session{eng: eng, policy: algebra.PolicyExact, notify: notify, m: m}
}

// Metrics returns the session's metrics sink.
func (s *Session) Metrics() *Metrics { return s.m }

// MetricsReport is the metrics document SHOW METRICS prints and
// DB.MetricsHandler serves as JSON.
type MetricsReport struct {
	Engine engine.MetricsSnapshot `json:"engine"`
	SQL    MetricsSnapshot        `json:"sql"`
}

// MetricsReport snapshots the engine's metrics and this session's.
func (s *Session) MetricsReport() MetricsReport {
	return MetricsReport{s.eng.Metrics(), s.m.Snapshot()}
}

// Plan is what the planning pipeline makes of one statement. Every read
// path — Exec, EXPLAIN, DELETE, CREATE VIEW, DB.Plan and the wire server —
// takes its tree from one pipeline and from nowhere else: Session.Plan
// fills every field, and PlanAndRun leaves Physical and Choices to
// Session.Physical, which a read calls only when it must evaluate.
type Plan struct {
	// Logical is the statement lowered as written, over the engine's live
	// relations and, where it names a view, the snapshot the view's read
	// returned.
	Logical algebra.Expr
	// Key is the canonical plan string, PushDownSelections(Logical): the
	// result-cache key. No access path enters it, so indexed and unindexed
	// engines share keys. It is empty when the tree embeds a view snapshot,
	// a point-in-time relation no string names (and for DELETE, which
	// caches nothing).
	Key string
	// Physical is the cost-based plan that runs. Each substitution keeps
	// rows, per-tuple texp and texp(e) (Theorem 1 applied to a physical
	// plan), which is why Key may stay logical, and why a read the result
	// cache answers needs none: nil until Session.Physical makes it.
	Physical algebra.Expr
	// Choices are the costed decisions behind Physical, for EXPLAIN.
	Choices []Choice
	// Until is the earliest ValidUntil of the views resolved while
	// planning, ∞ without one. A snapshot stops being its view's answer
	// then, so nothing computed from it may be stamped valid any later.
	Until xtime.Time

	rewritten algebra.Expr // Logical, selections pushed: what Key prints
	// The stamp of the last view resolved, if viewed: the instant its read
	// answers for and the window, as ReadInfo.At and ReadInfo.Validity.
	viewAt    xtime.Time
	viewStamp interval.Validity
	viewed    bool
	moved     error // set when a view's read was moved off the current tick
}

// lowering is what a SELECT's plan owes to the statement, the catalogue and
// the aggregation policy alone: Logical, its rewrite and Key. It stands
// while every leaf is still its table's relation and the policy is
// unchanged; index DDL, writes and actuals steer only the optimiser, which
// runs on every plan that is evaluated. Only a statement in the memo keeps
// one, and a plan that read a view keeps none.
type lowering struct {
	Plan
	leaves []*algebra.Base // the tables Logical reads
	policy algebra.AggPolicy
}

// Plan runs the whole pipeline on a parsed SELECT (ORDER BY/LIMIT are the
// caller's to apply) or DELETE: lower, canonicalise, optimise. EXPLAIN,
// DELETE and CREATE VIEW take their tree from it; a SELECT that runs goes
// through PlanAndRun, which optimises only a read that evaluates, and
// DB.Plan through PlanQuery, which never does.
func (s *Session) Plan(stmt Statement) (Plan, error) {
	p, err := s.canonical(stmt)
	if err != nil {
		return Plan{}, err
	}
	s.Physical(&p)
	return p, nil
}

// Physical returns p's physical plan, running the optimiser on p's rewrite
// first when the plan was made without one.
func (s *Session) Physical(p *Plan) algebra.Expr {
	if p.Physical == nil {
		p.Physical, p.Choices = s.optimize(p.rewritten)
	}
	return p.Physical
}

// canonical is the pipeline up to the optimiser: lower and canonicalise.
func (s *Session) canonical(stmt Statement) (Plan, error) {
	p := Plan{Until: xtime.Infinity}
	switch st := stmt.(type) {
	case *Select:
		if err := s.lower(&p, st); err != nil {
			return Plan{}, err
		}
	case *Delete:
		// σ[where](table), or the bare table: canonical as lowered.
		base, err := s.eng.Base(st.Table)
		if err != nil {
			return Plan{}, err
		}
		p.Logical = base
		if st.Where != nil {
			pred, err := condToPredicate(st.Where, scope{{st.Table, base.Schema()}})
			if err != nil {
				return Plan{}, err
			}
			p.Logical = &algebra.Select{Pred: pred, Child: base}
		}
		p.rewritten = p.Logical
	default:
		return Plan{}, fmt.Errorf("sql: only SELECT and DELETE are planned, got %T", stmt)
	}
	return p, nil
}

// lower fills in p's Logical, rewrite and Key for sel, from the lowering
// kept on sel while it stands, else by lowering sel afresh.
func (s *Session) lower(p *Plan, sel *Select) error {
	l := sel.low
	if l != nil {
		if l.Logical != nil && l.policy == s.policy && s.current(l.leaves) {
			*p = l.Plan
			return nil
		}
		*l = lowering{} // stale: it must not keep a dropped relation alive
	}
	expr, err := s.planSelect(p, sel)
	if err != nil {
		return err
	}
	// A moved view answers for another instant: only its own leaf can carry it.
	if _, bare := expr.(*algebra.Base); p.moved != nil && !bare {
		return p.moved
	}
	p.Logical, p.rewritten = expr, algebra.PushDownSelections(expr)
	if !p.viewed {
		p.Key = p.rewritten.String()
		if l != nil {
			*l = lowering{Plan: *p, policy: s.policy}
			algebra.Walk(expr, func(e algebra.Expr) {
				if b, ok := e.(*algebra.Base); ok {
					l.leaves = append(l.leaves, b)
				}
			})
		}
	}
	return nil
}

// current reports whether every leaf is still its table's relation.
func (s *Session) current(leaves []*algebra.Base) bool {
	for _, b := range leaves {
		if rel, err := s.eng.Catalog().Table(b.Name); err != nil || rel != b.Rel {
			return false
		}
	}
	return true
}

// Query evaluates p at the current tick and stamps the answer with its
// validity window. The result cache answers p by its Key: only a read that
// evaluates or patches makes p's physical plan, under an "optimize" span of
// the statement's trace. A plan that is a view's own leaf is served as ReadView
// serves it: the shared snapshot, at the instant and under the window the
// view reported. Any other answer holds until texp(e) or until a view it
// was computed from changes, whichever comes first. When the clock has
// reached Until by the time the plan is evaluated — a concurrent ADVANCE
// between Plan and Query — no view stands behind the snapshot any more and
// the answer would carry the empty window [t, t[: Query reports that the
// plan expired (an error matching view.ErrInvalid) and the caller plans
// again, as Exec, EXPLAIN and the wire server do.
func (s *Session) Query(p *Plan) (engine.QueryResult, error) {
	if b, ok := p.Physical.(*algebra.Base); ok && p.viewed {
		return engine.QueryResult{Rel: b.Rel, At: p.viewAt, Validity: p.viewStamp}, nil
	}
	qr, err := s.eng.QueryPlan(p.Key, s.tid, func() algebra.Expr {
		if p.Physical == nil {
			sp := s.span.Child("optimize")
			s.Physical(p)
			sp.End()
		}
		return p.Physical
	})
	if err == nil {
		err = p.expiredAt(qr.At)
	}
	if err != nil {
		return engine.QueryResult{}, err
	}
	qr.Validity.ValidUntil = xtime.Min(qr.Validity.ValidUntil, p.Until)
	return qr, nil
}

// expiredAt is nil while a plan evaluated at now still reads view
// snapshots their views answer for, i.e. before Until.
func (p *Plan) expiredAt(now xtime.Time) error {
	if now < p.Until {
		return nil
	}
	return fmt.Errorf("sql: plan expired: it reads a view snapshot valid until %s and the clock is at %s: %w",
		p.Until, now, view.ErrInvalid)
}

// planAttempts bounds the re-planning of one statement whose plans keep
// expiring before they run.
const planAttempts = 3

// PlanAndRun plans stmt and hands the plan to run; when run reports the
// plan expired under it, by an error matching view.ErrInvalid, the
// statement is planned again against the views' new answers — planAttempts
// times in all, then the error stands. Every path that evaluates a plan
// over a view goes through it. A plan with a cache key comes without its
// physical plan, which Query makes only when the cache cannot answer and
// run otherwise asks Session.Physical for; one without (a view read) is
// optimised here, as Plan does. run gets the Plan by value: a pointer handed
// to a func value would move every statement's Plan to the heap.
func (s *Session) PlanAndRun(stmt Statement, run func(Plan) error) error {
	for attempt := 1; ; attempt++ {
		sp := s.span.Child("plan")
		p, err := s.canonical(stmt)
		if err == nil && p.Key == "" {
			s.Physical(&p)
		}
		sp.End()
		if err != nil {
			return err
		}
		if err = run(p); attempt == planAttempts || !errors.Is(err, view.ErrInvalid) {
			return err
		}
	}
}

// SetTrace makes tid the trace ID of what the session plans and evaluates
// next: the wire server passes the remote client's, so the view reads and
// cache events a request causes carry it. Exec mints one per statement.
func (s *Session) SetTrace(tid trace.ID) { s.tid = tid }

// ParseQuery parses q, which must be one SELECT without ORDER BY/LIMIT —
// a statement that denotes a relation, the only kind that can be returned
// as an expression or materialised on a remote node.
func ParseQuery(q string) (*Select, error) { return query(Parse(q)) }

// query is the ParseQuery check of a parsed statement.
func query(stmt Statement, err error) (*Select, error) {
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT, got %T", stmt)
	}
	if len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return nil, fmt.Errorf("sql: ORDER BY/LIMIT are presentation-level and cannot be planned as an expression")
	}
	return sel, nil
}

// PlanQuery lowers the SELECT q to an algebra expression bound to the
// engine's relations, without evaluating it: Plan.Logical, which the
// optimiser does not make, so none runs. It shares the statement memo with
// Exec.
func (s *Session) PlanQuery(q string) (algebra.Expr, error) {
	sel, err := query(s.parse(q))
	if err != nil {
		return nil, err
	}
	p, err := s.canonical(sel)
	if err != nil {
		return nil, err
	}
	return p.Logical, nil
}

// Exec parses and executes one statement.
func (s *Session) Exec(input string) (*Result, error) {
	stmt, err := s.parse(input)
	if err != nil {
		return nil, err
	}
	return s.execTraced(stmt, input)
}

// parse is Parse behind the statement memo: a SELECT text seen before is
// not parsed again. Only SELECTs are admitted, and never a parse error.
func (s *Session) parse(input string) (Statement, error) {
	if sel := s.memo[input]; sel != nil {
		s.m.MemoHits.Inc()
		return sel, nil
	}
	start := time.Now()
	stmt, err := Parse(input)
	s.m.ParseNanos.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		s.m.ParseErrs.Inc()
		return nil, err
	}
	if sel, ok := stmt.(*Select); ok {
		// A text read once is only noted; the memo starts over when full.
		if _, seen := s.memo[input]; seen {
			sel.low = new(lowering) // admitted: Plan keeps its lowering here
		} else {
			sel = nil
			if s.memo == nil || len(s.memo) >= engine.DefaultResultCacheSize {
				s.memo = map[string]*Select{}
			}
		}
		s.memo[input] = sel
	}
	return stmt, nil
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error; it returns the result of the last statement.
func (s *Session) ExecScript(input string) (*Result, error) {
	start := time.Now()
	stmts, err := ParseScript(input)
	s.m.ParseNanos.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		s.m.ParseErrs.Inc()
		return nil, err
	}
	res := &Result{Msg: "empty script"}
	for _, stmt := range stmts {
		res, err = s.ExecStmt(stmt)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt Statement) (*Result, error) {
	return s.execTraced(stmt, "")
}

// execTraced wraps execStmt with the per-statement observability: a
// fresh trace ID (stamped on the Result and propagated into every engine
// operation the statement performs), metrics, and — when the engine's
// slow-query threshold is set — a span tree that is recorded in the
// slow-query log if the statement's wall time reaches the threshold.
func (s *Session) execTraced(stmt Statement, input string) (*Result, error) {
	kind := kindOf(stmt)
	if input == "" {
		input = kind.String() // ExecStmt callers have no source text
	}
	s.tid = trace.NextID()
	s.span = nil
	slow := s.eng.SlowQueryThreshold()
	if slow > 0 {
		s.span = trace.Begin(kind.String())
	}
	start := time.Now()
	res, err := s.execStmt(stmt)
	elapsed := time.Since(start)
	s.m.Record(kind, elapsed, err)
	if err != nil {
		s.span.Set("error", err.Error())
	}
	if res != nil {
		res.TraceID = s.tid
	}
	if s.span != nil {
		s.span.End()
		if elapsed >= slow {
			tick := s.eng.Now()
			if res != nil {
				tick = res.At
			}
			s.eng.Traces().Emit(trace.Trace{
				ID: s.tid, Stmt: input, Tick: tick, Total: elapsed, Root: s.span,
			})
		}
		s.span = nil
	}
	return res, err
}

func (s *Session) execStmt(stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTable:
		cols := make([]tuple.Column, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = tuple.Column{Name: c.Name, Kind: c.Kind}
		}
		if err := s.eng.CreateTable(st.Name, tuple.Schema{Cols: cols}); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("table %s created", st.Name), At: s.eng.Now()}, nil

	case *DropTable:
		if err := s.eng.DropTable(st.Name); err != nil {
			return nil, err
		}
		s.memo = nil // its lowerings would keep the dropped relation alive
		return &Result{Msg: fmt.Sprintf("table %s dropped", st.Name), At: s.eng.Now()}, nil

	case *Insert:
		return s.execInsert(st)

	case *Delete:
		return s.execDelete(st)

	case *Select:
		var res *Result
		err := s.PlanAndRun(st, func(p Plan) error {
			// Query's optimiser span, if it runs, nests under execute.
			root := s.span
			s.span = root.Child("execute")
			qr, err := s.Query(&p)
			s.span.End()
			s.span = root
			if err != nil {
				return err
			}
			if qr.Cached {
				s.span.Set("cache", "hit")
			}
			// At is the tick the evaluation actually used (read under the
			// query's locks), not a re-read of the clock that a concurrent
			// Advance could have moved since.
			res = &Result{Rel: qr.Rel, At: qr.At, Validity: qr.Validity, Cached: qr.Cached}
			if len(st.OrderBy) > 0 || st.Limit >= 0 {
				return s.orderAndLimit(st, p.Logical, res)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return res, nil

	case *CreateView:
		return s.execCreateView(st)

	case *CreateIndex:
		return s.execCreateIndex(st)

	case *DropIndex:
		if err := s.eng.DropIndex(st.Name); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("index %s dropped", st.Name), At: s.eng.Now()}, nil

	case *CreateTrigger:
		msg := st.Message
		name := st.Name
		// A buffer per line: triggers run on the goroutine advancing the clock.
		err := s.eng.OnExpire(st.Table, func(table string, row relation.Row, at xtime.Time) {
			if s.notify != nil {
				b := append(append(make([]byte, 0, 128), "NOTIFY "...), name...)
				b = append(append(b, ": "...), table...)
				b = append(row.Tuple.AppendString(append(b, ' ')), " expired at "...)
				b = append(row.Texp.AppendString(b), " (fired "...)
				s.notify.Write(append(at.AppendString(b), ")\n"...))
			}
		})
		if err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("trigger %s on %s created (%s)", name, st.Table, msg), At: s.eng.Now()}, nil

	case *AdvanceTo:
		sp := s.span.Child("advance")
		err := s.eng.AdvanceTraced(st.To, s.tid)
		sp.End()
		if err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("time is now %s", st.To), At: st.To}, nil

	case *SetPolicy:
		switch st.Policy {
		case "naive":
			s.policy = algebra.PolicyNaive
		case "neutral":
			s.policy = algebra.PolicyNeutral
		case "exact":
			s.policy = algebra.PolicyExact
		default:
			return nil, fmt.Errorf("sql: unknown aggregation policy %q (naive, neutral, exact)", st.Policy)
		}
		return &Result{Msg: fmt.Sprintf("aggregation policy set to %s", st.Policy), At: s.eng.Now()}, nil

	case *Show:
		return s.execShow(st)

	case *RefreshView:
		if err := s.eng.RefreshViewTraced(st.Name, s.tid); err != nil {
			return nil, err
		}
		return &Result{Msg: fmt.Sprintf("view %s refreshed at %s", st.Name, s.eng.Now()), At: s.eng.Now()}, nil

	case *Explain:
		return s.execExplain(st)

	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

func (s *Session) execInsert(st *Insert) (*Result, error) {
	now := s.eng.Now()
	texp := xtime.Infinity
	switch st.Expires.Kind {
	case ExpiresAt:
		texp = st.Expires.Time
	case ExpiresIn:
		texp = now.Add(st.Expires.Time)
	}
	for _, row := range st.Rows {
		if err := s.eng.Insert(st.Table, tuple.Tuple(row), texp); err != nil {
			return nil, err
		}
	}
	return &Result{Msg: strconv.Itoa(len(st.Rows)) + " tuple(s) inserted into " + st.Table +
		" (expires " + texp.String() + ")", At: now}, nil
}

// execDelete hands the statement's access path — planned by the optimizer
// SELECT uses, so a sargable WHERE probes an index instead of scanning — to
// the engine, which picks and removes the victims in one critical section.
func (s *Session) execDelete(st *Delete) (*Result, error) {
	sp := s.span.Child("plan")
	p, err := s.Plan(st)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = s.span.Child("execute")
	n, at, err := s.eng.DeleteWhere(p.Physical)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("%d tuple(s) deleted from %s", n, st.Table), At: at}, nil
}

func (s *Session) execCreateView(st *CreateView) (*Result, error) {
	if len(st.Query.OrderBy) > 0 || st.Query.Limit >= 0 {
		return nil, fmt.Errorf("sql: a view is a relation (a set); ORDER BY/LIMIT belong in the reading query")
	}
	// The view keeps the physical plan and recomputes through it. It is
	// planned once, here (and again when recovery recompiles the
	// statement), never on later DDL: an IndexScan whose index was dropped
	// degrades to the scan it replaced, so a stored plan cannot go stale.
	p, err := s.Plan(st.Query)
	if err != nil {
		return nil, err
	}
	if p.viewed {
		// The plan holds the inner view's one-time snapshot, which stops
		// being that view's answer at Until; a view over it would not.
		inner := ""
		algebra.Walk(p.Logical, func(e algebra.Expr) {
			if b, ok := e.(*algebra.Base); ok {
				if _, err := s.eng.Catalog().Table(b.Name); err != nil {
					inner = b.Name
				}
			}
		})
		return nil, fmt.Errorf("sql: view %s reads view %s: define it over base tables", st.Name, inner)
	}
	var opts []view.Option
	if len(st.Options) == 0 && algebra.HasFuture(p.Physical) {
		// The planner picks the maintenance strategy the theorems allow, as
		// it picks the access path: a root whose future is determined keeps
		// it. Any WITH clause means the bare materialisation it spells out.
		opts = append(opts, view.WithPatching())
	}
	mode := view.ModeTexp
	for _, opt := range st.Options {
		name, val, _ := strings.Cut(opt, "=")
		switch name {
		case "patching":
			opts = append(opts, view.WithPatching())
		case "mode":
			switch val {
			case "texp":
				mode = view.ModeTexp
			case "interval":
				mode = view.ModeInterval
			case "recompute":
				mode = view.ModeAlwaysRecompute
			default:
				return nil, fmt.Errorf("sql: unknown view mode %q", val)
			}
			opts = append(opts, view.WithMode(mode))
		case "recovery":
			var r view.Recovery
			switch val {
			case "recompute":
				r = view.RecoverRecompute
			case "reject":
				r = view.RecoverReject
			case "backward":
				r = view.RecoverBackward
			case "forward":
				r = view.RecoverForward
			default:
				return nil, fmt.Errorf("sql: unknown view recovery %q", val)
			}
			opts = append(opts, view.WithRecovery(r))
		default:
			return nil, fmt.Errorf("sql: unknown view option %q", opt)
		}
	}
	v, err := s.eng.CreateViewDef(st.Name, st.Src, p.Physical, opts...)
	if err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("view %s materialised at %s (texp %s)",
		st.Name, v.MaterializedAt(), v.Texp()), At: s.eng.Now()}, nil
}

func (s *Session) execCreateIndex(st *CreateIndex) (*Result, error) {
	base, err := s.eng.Base(st.Table)
	if err != nil {
		return nil, err
	}
	schema := base.Schema()
	cols := make([]int, len(st.Cols))
	for i, name := range st.Cols {
		idx := schema.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("sql: no column %s in table %s", name, st.Table)
		}
		cols[i] = idx
	}
	kind := index.KindHash
	if st.Using != "" {
		k, ok := index.ParseKind(st.Using)
		if !ok {
			return nil, fmt.Errorf("sql: unknown index kind %q (HASH, ORDERED)", st.Using)
		}
		kind = k
	}
	def := &catalog.IndexDef{
		Name:     st.Name,
		Table:    st.Table,
		Cols:     cols,
		ColNames: append([]string(nil), st.Cols...),
		Kind:     kind,
		Def:      st.Src,
	}
	if err := s.eng.CreateIndex(def); err != nil {
		return nil, err
	}
	return &Result{Msg: fmt.Sprintf("index %s on %s (%s) created using %s",
		st.Name, st.Table, strings.Join(st.Cols, ", "), kind), At: s.eng.Now()}, nil
}

func (s *Session) execShow(st *Show) (*Result, error) {
	switch st.What {
	case "TABLES":
		return &Result{Msg: strings.Join(s.eng.Catalog().Tables(), "\n"), At: s.eng.Now()}, nil
	case "VIEWS":
		var lines []string
		for _, name := range s.eng.Catalog().Views() {
			v, err := s.eng.Catalog().View(name)
			if err != nil {
				continue
			}
			line := fmt.Sprintf("%s: %s (texp %s, validity %s", name, v.Expr(), v.Texp(), v.Validity())
			if vm, err := s.eng.ViewMetrics(name); err == nil {
				line += fmt.Sprintf(", %d pending births, %d base writes since", vm.PendingPatches, vm.BaseWritesSince)
			}
			lines = append(lines, line+")")
		}
		return &Result{Msg: strings.Join(lines, "\n"), At: s.eng.Now()}, nil
	case "INDEXES":
		var lines []string
		for _, def := range s.eng.Catalog().Indexes() {
			entries := ""
			if card, ok := s.eng.TableCard(def.Table); ok {
				entries = fmt.Sprintf(" [%d rows]", card)
			}
			lines = append(lines, fmt.Sprintf("%s ON %s (%s) USING %s%s",
				def.Name, def.Table, strings.Join(def.ColNames, ", "),
				strings.ToUpper(def.Kind.String()), entries))
		}
		if len(lines) == 0 {
			lines = append(lines, "no indexes")
		}
		return &Result{Msg: strings.Join(lines, "\n"), At: s.eng.Now()}, nil
	case "TIME":
		return &Result{Msg: s.eng.Now().String(), At: s.eng.Now()}, nil
	case "METRICS":
		buf, err := json.MarshalIndent(s.MetricsReport(), "", "  ")
		if err != nil {
			return nil, err
		}
		return &Result{Msg: string(buf), At: s.eng.Now()}, nil
	case "CACHE":
		rc, err := s.eng.ResultCacheStats()
		if err != nil {
			// Wraps engine's wrap of catalog.ErrCacheDisabled, so
			// errors.Is(err, ErrCacheDisabled) holds at every layer.
			return nil, fmt.Errorf("sql: SHOW CACHE: %w", err)
		}
		buf, err := json.MarshalIndent(rc, "", "  ")
		if err != nil {
			return nil, err
		}
		return &Result{Msg: string(buf), At: s.eng.Now()}, nil
	case "EVENTS":
		log := s.eng.Events()
		evs := log.Snapshot(st.Limit)
		lines := make([]string, 0, len(evs)+1)
		for _, e := range evs {
			lines = append(lines, e.String())
		}
		if len(lines) == 0 {
			lines = append(lines, "no lifecycle events recorded")
		}
		if d := log.Stats().Dropped; d > 0 {
			lines = append(lines, fmt.Sprintf("(%d older events dropped by the ring buffer)", d))
		}
		return &Result{Msg: strings.Join(lines, "\n"), At: s.eng.Now()}, nil
	case "HISTORY":
		mon := s.eng.Monitor()
		if mon == nil {
			return nil, fmt.Errorf("sql: SHOW HISTORY: monitoring disabled (open with engine.WithMonitor)")
		}
		snap := mon.History.Snapshot(st.Metric, st.Limit)
		if st.Metric != "" && len(snap.Series) == 0 {
			return nil, fmt.Errorf("sql: SHOW HISTORY: unknown metric %q (known: %s)",
				st.Metric, strings.Join(mon.History.SeriesNames(), ", "))
		}
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return nil, err
		}
		return &Result{Msg: string(buf), At: s.eng.Now()}, nil
	case "HEALTH":
		mon := s.eng.Monitor()
		if mon == nil {
			return nil, fmt.Errorf("sql: SHOW HEALTH: monitoring disabled (open with engine.WithMonitor)")
		}
		body := struct {
			// Durability is the engine's posture (memory-only, healthy,
			// degraded); while degraded the disk-degraded check below
			// carries the underlying I/O failure.
			Durability string                 `json:"durability"`
			Health     monitor.HealthSnapshot `json:"health"`
			SLO        monitor.SLOSnapshot    `json:"slo"`
		}{s.eng.DurabilityState().String(), mon.Health.Snapshot(), mon.SLO.Snapshot()}
		buf, err := json.MarshalIndent(body, "", "  ")
		if err != nil {
			return nil, err
		}
		return &Result{Msg: string(buf), At: s.eng.Now()}, nil
	case "TRACES":
		traces := s.eng.Traces().Snapshot(0)
		if len(traces) == 0 {
			msg := "no slow-query traces recorded"
			if s.eng.SlowQueryThreshold() <= 0 {
				msg += " (slow-query log off; open with WithSlowQueryThreshold)"
			}
			return &Result{Msg: msg, At: s.eng.Now()}, nil
		}
		var b strings.Builder
		for _, t := range traces {
			b.WriteString(t.String())
		}
		return &Result{Msg: strings.TrimRight(b.String(), "\n"), At: s.eng.Now()}, nil
	default: // STATS
		st := s.eng.Stats()
		return &Result{Msg: fmt.Sprintf(
			"inserts=%d deletes=%d expired=%d triggers=%d sweeps=%d",
			st.Inserts, st.Deletes, st.TuplesExpired, st.TriggersFired, st.Sweeps),
			At: s.eng.Now()}, nil
	}
}

func (s *Session) execExplain(st *Explain) (*Result, error) {
	var res *Result
	err := s.PlanAndRun(st.Query, func(p Plan) (err error) {
		s.Physical(&p)
		if st.Analyze {
			res, err = s.execExplainAnalyze(&p)
		} else {
			res, err = s.explain(&p)
		}
		return err
	})
	return res, err
}

// explain renders p as plain EXPLAIN prints it, without executing it.
func (s *Session) explain(p *Plan) (*Result, error) {
	phys := p.Physical
	// Engine.Inspect holds the plan's base-relation read locks while we
	// derive: texp(e), the validity intervals and every per-node
	// annotation see one frozen instant — a concurrent Advance cannot
	// make the tree inconsistent with its own header.
	var b strings.Builder
	var now xtime.Time
	err := s.eng.Inspect(phys, func(snap xtime.Time) error {
		now = snap
		if err := p.expiredAt(now); err != nil {
			return err
		}
		texp, validity, err := p.window(now)
		if err != nil {
			return err
		}
		p.header(&b)
		fmt.Fprintf(&b, "as-of:     t=%s (single snapshot; every derivation below uses this instant)\n", now)
		fmt.Fprintf(&b, "monotonic: %v\n", phys.Monotonic())
		fmt.Fprintf(&b, "texp(e):   %s\n", texp)
		fmt.Fprintf(&b, "validity:  %s\n", validity)
		p.accessPaths(&b)
		b.WriteString("tree:\n")
		explainNode(&b, phys, now, "", "")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Msg: strings.TrimRight(b.String(), "\n"), At: now}, nil
}

// window derives texp(e) and the validity set of the physical plan at now,
// both cut at Until, so EXPLAIN prints the window Query would stamp.
func (p *Plan) window(now xtime.Time) (xtime.Time, interval.Set, error) {
	texp, err := algebra.ExprTexp(p.Physical, now)
	if err != nil {
		return 0, interval.Set{}, err
	}
	validity, err := p.validity(now)
	return xtime.Min(texp, p.Until), validity, err
}

// validity is the validity set of the physical plan at now, cut at Until.
func (p *Plan) validity(now xtime.Time) (interval.Set, error) {
	v, err := algebra.Validity(p.Physical, now)
	return v.Intersect(interval.NewSet(interval.Interval{End: p.Until})), err
}

// header prints the plan's three forms, each only where it differs from
// the one above it.
func (p *Plan) header(b *strings.Builder) {
	fmt.Fprintf(b, "plan:      %s\n", p.Logical)
	if p.rewritten.String() != p.Logical.String() {
		fmt.Fprintf(b, "rewritten: %s\n", p.rewritten)
	}
	if p.Physical.String() != p.rewritten.String() {
		fmt.Fprintf(b, "physical:  %s\n", p.Physical)
	}
}

// accessPaths lists the costed decisions, chosen alternative first.
func (p *Plan) accessPaths(b *strings.Builder) {
	if len(p.Choices) > 0 {
		b.WriteString("access paths:\n")
	}
	for _, c := range p.Choices {
		b.WriteString("  " + c.String() + "\n")
	}
}

// explainNode renders one node of the lowered algebra tree with its
// per-node monotonicity flag and texp(e) at the current instant, then
// recurses into its children with box-drawing connectors.
func explainNode(b *strings.Builder, e algebra.Expr, now xtime.Time, prefix, childPrefix string) {
	mono := "non-monotonic"
	if e.Monotonic() {
		mono = "monotonic"
	}
	texp := "?"
	if t, err := algebra.ExprTexp(e, now); err == nil {
		texp = t.String()
	}
	fmt.Fprintf(b, "%s%s  [%s, texp(e)=%s%s]\n",
		prefix, nodeLabel(e), mono, texp, nodePolicy(e))
	kids := e.Children()
	for i, kid := range kids {
		connector, indent := "├─ ", "│  "
		if i == len(kids)-1 {
			connector, indent = "└─ ", "   "
		}
		explainNode(b, kid, now, childPrefix+connector, childPrefix+indent)
	}
}

// nodeLabel names a node without recursing into its children (Expr.String
// prints whole subtrees, which the tree layout already conveys).
func nodeLabel(e algebra.Expr) string {
	switch n := e.(type) {
	case *algebra.Base:
		return fmt.Sprintf("base(%s)", n.Name)
	case *algebra.Select:
		return fmt.Sprintf("σ[%s]", n.Pred)
	case *algebra.Project:
		cols := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = fmt.Sprintf("%d", c+1)
		}
		return fmt.Sprintf("π[%s]", strings.Join(cols, ","))
	case *algebra.Product:
		return "×"
	case *algebra.Union:
		return "∪"
	case *algebra.Intersect:
		return "∩"
	case *algebra.Diff:
		return "−"
	case *algebra.Join:
		side := ""
		if n.BuildLeft {
			side = ", build=left"
		}
		return fmt.Sprintf("⋈[%s%s]", n.Pred, side)
	case *algebra.IndexScan:
		return n.String()
	case *algebra.Agg:
		groups := make([]string, len(n.GroupCols))
		for i, c := range n.GroupCols {
			groups[i] = fmt.Sprintf("%d", c+1)
		}
		funcs := make([]string, len(n.Funcs))
		for i, f := range n.Funcs {
			funcs[i] = f.String()
		}
		return fmt.Sprintf("agg[{%s};%s]", strings.Join(groups, ","), strings.Join(funcs, ","))
	default:
		return fmt.Sprintf("%T", e)
	}
}

// nodePolicy annotates nodes that carry an expiration policy (today only
// aggregation, §4 of the paper).
func nodePolicy(e algebra.Expr) string {
	if a, ok := e.(*algebra.Agg); ok {
		return ", policy=" + a.Policy.String()
	}
	return ""
}

// orderAndLimit fills res.Rows with the visible rows in ORDER BY order,
// truncated to LIMIT. Ordering is presentation-level: the relational
// result stays a set, matching the paper's model.
func (s *Session) orderAndLimit(st *Select, expr algebra.Expr, res *Result) error {
	schema := expr.Schema()
	keys := make([]struct {
		col  int
		desc bool
	}, len(st.OrderBy))
	for i, o := range st.OrderBy {
		idx := schema.ColumnIndex(o.Col.Name)
		if idx < 0 {
			return fmt.Errorf("sql: ORDER BY column %s not in result", refString(o.Col))
		}
		keys[i].col = idx
		keys[i].desc = o.Desc
	}
	// RowsSorted gives a deterministic base order, so rows tied on every
	// ORDER BY key still come out in a stable, reproducible order.
	// The slice is ours to re-order: RowsSorted never hands out the order
	// a view or a cached result remembers, only a copy of it.
	rows := res.Rel.RowsSorted(res.At)
	slices.SortStableFunc(rows, func(a, b relation.Row) int {
		for _, k := range keys {
			c := a.Tuple[k.col].Compare(b.Tuple[k.col])
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	if st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}
	res.ordered = rows
	res.hasOrdered = true
	return nil
}
