package sql

import (
	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind value.Kind
}

// CreateTable is CREATE TABLE name (col TYPE, ...).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

func (*CreateTable) stmt() {}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

// ExpiresKind classifies the EXPIRES clause of INSERT.
type ExpiresKind uint8

const (
	// ExpiresNone: no clause — the tuple never expires (texp = ∞).
	ExpiresNone ExpiresKind = iota
	// ExpiresNever: explicit EXPIRES NEVER.
	ExpiresNever
	// ExpiresAt: EXPIRES AT t — absolute expiration tick.
	ExpiresAt
	// ExpiresIn: EXPIRES IN d — lifetime relative to the current tick.
	ExpiresIn
)

// ExpiresClause carries the expiration of inserted tuples.
type ExpiresClause struct {
	Kind ExpiresKind
	Time xtime.Time
}

// Insert is INSERT INTO name VALUES (...), (...) [EXPIRES …].
type Insert struct {
	Table   string
	Rows    [][]value.Value
	Expires ExpiresClause
}

func (*Insert) stmt() {}

// Delete is DELETE FROM name [WHERE cond].
type Delete struct {
	Table string
	Where Cond // nil: delete all
}

func (*Delete) stmt() {}

// ColRef references a column, optionally qualified by table name.
type ColRef struct {
	Table string // "" when unqualified
	Name  string
}

// Operand is a comparison operand: a column reference or a literal.
type Operand struct {
	Col *ColRef
	Lit *value.Value
}

// Cond is a boolean condition tree over comparisons.
type Cond interface{ cond() }

// Compare is <operand> op <operand> with op ∈ {=, <>, <, <=, >, >=}.
type Compare struct {
	Op          string
	Left, Right Operand
}

func (*Compare) cond() {}

// LogicalAnd / LogicalOr / LogicalNot compose conditions.
type LogicalAnd struct{ Conds []Cond }

func (*LogicalAnd) cond() {}

// LogicalOr is the ∨-composition.
type LogicalOr struct{ Conds []Cond }

func (*LogicalOr) cond() {}

// LogicalNot negates a condition.
type LogicalNot struct{ Cond Cond }

func (*LogicalNot) cond() {}

// SelectItem is one output of a SELECT list: a column, an aggregate, or *
// (Star).
type SelectItem struct {
	Star bool
	Col  *ColRef
	Agg  *AggItem
}

// AggItem is MIN/MAX/SUM/AVG(col) or COUNT(*)/COUNT(col).
type AggItem struct {
	Func string // upper-case
	Star bool   // COUNT(*)
	Col  *ColRef
}

// TableRef names a FROM source (base table or view).
type TableRef struct {
	Name string
}

// JoinClause is JOIN name ON cond.
type JoinClause struct {
	Table TableRef
	On    Cond
}

// SetOp combines two selects.
type SetOp struct {
	Op    string // UNION, EXCEPT, INTERSECT
	Right *Select
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// Select is the query statement. OrderBy and Limit apply to the full
// result (after any set operator); they shape presentation only — the
// underlying result remains a set.
type Select struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause // left-deep chain of JOIN … ON …
	Where   Cond
	GroupBy []ColRef
	Set     *SetOp
	OrderBy []OrderItem
	Limit   int // -1: no limit

	// low holds Session.Plan's lowering of a statement in a session's memo,
	// reused by its next plan while it stands; nil outside the memo. Plan
	// writes it, so like its Session it is used by one goroutine at a time.
	low *lowering
}

func (*Select) stmt() {}

// CreateView is CREATE [MATERIALIZED] VIEW name [WITH (opt, ...)] AS select.
type CreateView struct {
	Name    string
	Options []string // e.g. "patching", "mode=interval", "recovery=backward"
	Query   *Select
	// Src is the statement's verbatim source text, stamped by the parser.
	// The engine logs it to the WAL so recovery can recompile the view.
	Src string
}

func (*CreateView) stmt() {}

// CreateIndex is CREATE INDEX name ON table (col, ...) [USING HASH|ORDERED].
type CreateIndex struct {
	Name  string
	Table string
	Cols  []string
	Using string // "", "HASH", "ORDERED" (BTREE is an alias for ORDERED)
	// Src is the statement's verbatim source text, stamped by the parser
	// and logged to the WAL so recovery can recompile the index.
	Src string
}

func (*CreateIndex) stmt() {}

// DropIndex is DROP INDEX name.
type DropIndex struct{ Name string }

func (*DropIndex) stmt() {}

// CreateTrigger is CREATE TRIGGER name ON table ON EXPIRE DO NOTIFY 'msg'.
type CreateTrigger struct {
	Name    string
	Table   string
	Message string
}

func (*CreateTrigger) stmt() {}

// AdvanceTo is ADVANCE TO t (clock control).
type AdvanceTo struct{ To xtime.Time }

func (*AdvanceTo) stmt() {}

// SetPolicy is SET POLICY naive|neutral|exact for aggregation expiration.
type SetPolicy struct{ Policy string }

func (*SetPolicy) stmt() {}

// Show is SHOW TABLES | VIEWS | TIME | STATS | METRICS | EVENTS | TRACES
// | HISTORY | HEALTH.
type Show struct {
	What string
	// Metric narrows SHOW HISTORY to one series ("" = all registered).
	Metric string
	// Limit bounds SHOW EVENTS / SHOW HISTORY to the most recent n
	// entries (0 = all retained).
	Limit int
}

func (*Show) stmt() {}

// RefreshView is REFRESH VIEW name: force re-materialisation now.
type RefreshView struct{ Name string }

func (*RefreshView) stmt() {}

// Explain is EXPLAIN [ANALYZE] select: print the algebra plan, its
// monotonicity, texp(e) and validity intervals. With ANALYZE the plan is
// actually executed through a per-node instrumentation wrapper and the
// tree is annotated with actual rows, expired-filtered counts, derived
// texp(e) and wall time.
type Explain struct {
	Query   *Select
	Analyze bool
}

func (*Explain) stmt() {}
