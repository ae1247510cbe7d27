package sql

import (
	"fmt"
	"strconv"
	"strings"

	"expdb/internal/value"
	"expdb/internal/xtime"
)

// Parse parses a single SQL statement (a trailing semicolon is optional).
func Parse(input string) (Statement, error) {
	var buf [32]token // the tokens of most statements, on the stack
	toks, err := lex(input, buf[:0])
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	start := p.peek().pos
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	stampSrc(stmt, input, start, p.peek().pos)
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input starting at %s", p.peek())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Statement, error) {
	toks, err := lex(input, nil)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.at(tokEOF, "") {
			return stmts, nil
		}
		start := p.peek().pos
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stampSrc(s, input, start, p.peek().pos)
		stmts = append(stmts, s)
		if !p.accept(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, fmt.Errorf("sql: expected ';' between statements, got %s", p.peek())
		}
	}
}

// stampSrc records a statement's verbatim source text on the node kinds
// that persist it (CREATE VIEW is logged to the WAL so recovery can
// recompile the view). start/end are byte offsets: the first token's
// position and the position of the token after the statement (";" or
// EOF).
func stampSrc(stmt Statement, input string, start, end int) {
	switch st := stmt.(type) {
	case *CreateView:
		st.Src = strings.TrimSpace(input[start:end])
	case *CreateIndex:
		st.Src = strings.TrimSpace(input[start:end])
	}
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokInt: "integer", tokKeyword: "keyword",
		}[kind]
	}
	return token{}, fmt.Errorf("sql: expected %s, got %s", want, p.peek())
}

func (p *parser) ident() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "CREATE"):
		return p.create()
	case p.accept(tokKeyword, "DROP"):
		if p.accept(tokKeyword, "INDEX") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropIndex{Name: name}, nil
		}
		if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.at(tokKeyword, "INSERT"):
		return p.insert()
	case p.at(tokKeyword, "DELETE"):
		return p.delete()
	case p.at(tokKeyword, "SELECT"):
		return p.selectStmt()
	case p.accept(tokKeyword, "ADVANCE"):
		if _, err := p.expect(tokKeyword, "TO"); err != nil {
			return nil, err
		}
		t, err := p.timeLiteral()
		if err != nil {
			return nil, err
		}
		return &AdvanceTo{To: t}, nil
	case p.accept(tokKeyword, "SET"):
		if _, err := p.expect(tokKeyword, "POLICY"); err != nil {
			return nil, err
		}
		name, err := p.policyName()
		if err != nil {
			return nil, err
		}
		return &SetPolicy{Policy: name}, nil
	case p.accept(tokKeyword, "SHOW"):
		for _, what := range []string{"TABLES", "VIEWS", "INDEXES", "TIME", "STATS", "METRICS", "CACHE", "EVENTS", "TRACES", "HISTORY", "HEALTH"} {
			if p.accept(tokKeyword, what) {
				show := &Show{What: what}
				// A labelled series is named as a quoted string.
				if what == "HISTORY" && (p.at(tokIdent, "") || p.at(tokString, "")) {
					show.Metric = p.next().text
				}
				if (what == "EVENTS" || what == "HISTORY") && p.accept(tokKeyword, "LIMIT") {
					n, err := p.expect(tokInt, "")
					if err != nil {
						return nil, err
					}
					lim, err := strconv.Atoi(n.text)
					if err != nil || lim <= 0 {
						return nil, fmt.Errorf("sql: bad LIMIT %q", n.text)
					}
					show.Limit = lim
				}
				return show, nil
			}
		}
		return nil, fmt.Errorf("sql: SHOW expects TABLES, VIEWS, INDEXES, TIME, STATS, METRICS, CACHE, EVENTS, TRACES, HISTORY or HEALTH, got %s", p.peek())
	case p.accept(tokKeyword, "REFRESH"):
		if _, err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &RefreshView{Name: name}, nil
	case p.accept(tokKeyword, "EXPLAIN"):
		analyze := p.accept(tokKeyword, "ANALYZE")
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel.(*Select), Analyze: analyze}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected %s at start of statement", p.peek())
	}
}

// policyName accepts an identifier-like policy name (lexed as ident).
func (p *parser) policyName() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return strings.ToLower(t.text), nil
	}
	return "", fmt.Errorf("sql: expected policy name, got %s", t)
}

func (p *parser) create() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		return p.createTable()
	case p.accept(tokKeyword, "MATERIALIZED"):
		if _, err := p.expect(tokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		return p.createView()
	case p.accept(tokKeyword, "VIEW"):
		return p.createView()
	case p.accept(tokKeyword, "TRIGGER"):
		return p.createTrigger()
	case p.accept(tokKeyword, "INDEX"):
		return p.createIndex()
	default:
		return nil, fmt.Errorf("sql: CREATE expects TABLE, [MATERIALIZED] VIEW, TRIGGER or INDEX, got %s", p.peek())
	}
}

// createIndex parses CREATE INDEX name ON table (col, ...) [USING kind].
func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	using := ""
	if p.accept(tokKeyword, "USING") {
		t := p.peek()
		if t.kind != tokKeyword && t.kind != tokIdent {
			return nil, fmt.Errorf("sql: USING expects an index kind (HASH, ORDERED, BTREE), got %s", t)
		}
		p.next()
		using = strings.ToUpper(t.text)
	}
	return &CreateIndex{Name: name, Table: table, Cols: cols, Using: using}, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokKeyword {
			return nil, fmt.Errorf("sql: expected column type, got %s", t)
		}
		kind, err := value.ParseKind(t.text)
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: colName, Kind: kind})
		if p.accept(tokSymbol, ",") {
			continue
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *parser) insert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	// A literal is one token (after an optional '-'): counted up to EXPIRES
	// or the statement's end, they size the one array the rows are cut from.
	nvals, nrows := 0, 0
	for _, t := range p.toks[p.i:] {
		if t.kind == tokKeyword && t.text == "EXPIRES" || t.kind == tokSymbol && t.text == ";" {
			break
		}
		if t.kind != tokSymbol {
			nvals++
		} else if t.text == "(" {
			nrows++
		}
	}
	vals, rows := make([]value.Value, 0, nvals), make([][]value.Value, 0, nrows)
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		first := len(vals)
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		rows = append(rows, vals[first:len(vals):len(vals)])
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	exp := ExpiresClause{Kind: ExpiresNone}
	if p.accept(tokKeyword, "EXPIRES") {
		switch {
		case p.accept(tokKeyword, "NEVER"):
			exp.Kind = ExpiresNever
		case p.accept(tokKeyword, "AT"):
			t, err := p.timeLiteral()
			if err != nil {
				return nil, err
			}
			exp = ExpiresClause{Kind: ExpiresAt, Time: t}
		case p.accept(tokKeyword, "IN"):
			t, err := p.timeLiteral()
			if err != nil {
				return nil, err
			}
			exp = ExpiresClause{Kind: ExpiresIn, Time: t}
		default:
			return nil, fmt.Errorf("sql: EXPIRES expects NEVER, AT t or IN d, got %s", p.peek())
		}
	}
	return &Insert{Table: table, Rows: rows, Expires: exp}, nil
}

func (p *parser) delete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	var where Cond
	if p.accept(tokKeyword, "WHERE") {
		where, err = p.cond()
		if err != nil {
			return nil, err
		}
	}
	return &Delete{Table: table, Where: where}, nil
}

func (p *parser) createView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var options []string
	if p.accept(tokKeyword, "WITH") {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			opt, err := p.viewOption()
			if err != nil {
				return nil, err
			}
			options = append(options, opt)
			if p.accept(tokSymbol, ",") {
				continue
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Options: options, Query: sel.(*Select)}, nil
}

// viewOption parses "name" or "name = value" into "name" / "name=value".
func (p *parser) viewOption() (string, error) {
	t := p.next()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return "", fmt.Errorf("sql: expected view option, got %s", t)
	}
	name := strings.ToLower(t.text)
	if p.accept(tokSymbol, "=") {
		v := p.next()
		if v.kind != tokIdent && v.kind != tokKeyword && v.kind != tokInt {
			return "", fmt.Errorf("sql: expected option value, got %s", v)
		}
		return name + "=" + strings.ToLower(v.text), nil
	}
	return name, nil
}

func (p *parser) createTrigger() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "EXPIRE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "DO"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "NOTIFY"); err != nil {
		return nil, err
	}
	msg, err := p.expect(tokString, "")
	if err != nil {
		return nil, err
	}
	return &CreateTrigger{Name: name, Table: table, Message: msg.text}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.From = TableRef{Name: name}
	for p.accept(tokKeyword, "JOIN") {
		jname, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.cond()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: TableRef{Name: jname}, On: on})
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.cond()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	for _, op := range []string{"UNION", "EXCEPT", "INTERSECT"} {
		if p.accept(tokKeyword, op) {
			right, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			sel.Set = &SetOp{Op: op, Right: right.(*Select)}
			// ORDER BY / LIMIT of the whole statement were consumed by
			// the right-hand select; hoist them to the outer level.
			sel.OrderBy, sel.Set.Right.OrderBy = sel.Set.Right.OrderBy, nil
			sel.Limit, sel.Set.Right.Limit = sel.Set.Right.Limit, -1
			break
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil || lim < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", n.text)
		}
		sel.Limit = lim
	}
	return sel, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	for _, fn := range []string{"MIN", "MAX", "SUM", "COUNT", "AVG"} {
		if p.accept(tokKeyword, fn) {
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return SelectItem{}, err
			}
			item := SelectItem{Agg: &AggItem{Func: fn}}
			if p.accept(tokSymbol, "*") {
				if fn != "COUNT" {
					return SelectItem{}, fmt.Errorf("sql: %s(*) is not supported", fn)
				}
				item.Agg.Star = true
			} else {
				c, err := p.colRef()
				if err != nil {
					return SelectItem{}, err
				}
				item.Agg.Col = &c
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return SelectItem{}, err
			}
			return item, nil
		}
	}
	c, err := p.colRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: &c}, nil
}

func (p *parser) colRef() (ColRef, error) {
	first, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		second, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Name: second}, nil
	}
	return ColRef{Name: first}, nil
}

// cond parses OR-combined AND-combined comparisons with NOT and
// parentheses.
func (p *parser) cond() (Cond, error) {
	left, err := p.condAnd()
	if err != nil {
		return nil, err
	}
	conds := []Cond{left}
	for p.accept(tokKeyword, "OR") {
		right, err := p.condAnd()
		if err != nil {
			return nil, err
		}
		conds = append(conds, right)
	}
	if len(conds) == 1 {
		return conds[0], nil
	}
	return &LogicalOr{Conds: conds}, nil
}

func (p *parser) condAnd() (Cond, error) {
	left, err := p.condUnary()
	if err != nil {
		return nil, err
	}
	conds := []Cond{left}
	for p.accept(tokKeyword, "AND") {
		right, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		conds = append(conds, right)
	}
	if len(conds) == 1 {
		return conds[0], nil
	}
	return &LogicalAnd{Conds: conds}, nil
}

func (p *parser) condUnary() (Cond, error) {
	if p.accept(tokKeyword, "NOT") {
		c, err := p.condUnary()
		if err != nil {
			return nil, err
		}
		return &LogicalNot{Cond: c}, nil
	}
	if p.accept(tokSymbol, "(") {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	return p.compare()
}

func (p *parser) compare() (Cond, error) {
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	opTok := p.next()
	if opTok.kind != tokSymbol {
		return nil, fmt.Errorf("sql: expected comparison operator, got %s", opTok)
	}
	switch opTok.text {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("sql: unknown comparison operator %q", opTok.text)
	}
	right, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &Compare{Op: opTok.text, Left: left, Right: right}, nil
}

func (p *parser) operand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokIdent:
		c, err := p.colRef()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Col: &c}, nil
	case tokInt, tokFloat, tokString, tokKeyword, tokSymbol:
		v, err := p.literal()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Lit: &v}, nil
	default:
		return Operand{}, fmt.Errorf("sql: expected operand, got %s", t)
	}
}

// literal parses a value literal: integer, float, string, TRUE/FALSE,
// NULL, with optional leading minus for numerics.
func (p *parser) literal() (value.Value, error) {
	neg := false
	if p.accept(tokSymbol, "-") {
		neg = true
	}
	t := p.next()
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("sql: bad integer %q: %v", t.text, err)
		}
		if neg {
			n = -n
		}
		return value.Int(n), nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return value.Null, fmt.Errorf("sql: bad float %q: %v", t.text, err)
		}
		if neg {
			f = -f
		}
		return value.Float(f), nil
	case tokString:
		if neg {
			return value.Null, fmt.Errorf("sql: cannot negate a string")
		}
		return value.String_(t.text), nil
	case tokKeyword:
		if neg {
			return value.Null, fmt.Errorf("sql: cannot negate %s", t.text)
		}
		switch t.text {
		case "TRUE":
			return value.Bool(true), nil
		case "FALSE":
			return value.Bool(false), nil
		case "NULL":
			return value.Null, nil
		}
	}
	return value.Null, fmt.Errorf("sql: expected literal, got %s", t)
}

// timeLiteral parses an integer tick or NEVER (∞).
func (p *parser) timeLiteral() (xtime.Time, error) {
	if p.accept(tokKeyword, "NEVER") {
		return xtime.Infinity, nil
	}
	t, err := p.expect(tokInt, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sql: bad time literal %q", t.text)
	}
	return xtime.Time(n), nil
}
