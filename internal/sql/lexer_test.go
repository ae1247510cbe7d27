package sql

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"expdb/internal/engine"
)

func lexKinds(t *testing.T, input string) []token {
	t.Helper()
	toks, err := lex(input, nil)
	if err != nil {
		t.Fatalf("lex(%q): %v", input, err)
	}
	return toks
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks := lexKinds(t, "select Uid from POL")
	want := []struct {
		kind tokenKind
		text string
	}{
		{tokKeyword, "SELECT"}, {tokIdent, "Uid"}, {tokKeyword, "FROM"}, {tokIdent, "POL"},
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	toks := lexKinds(t, "1 23 4.5 0.25")
	kinds := []tokenKind{tokInt, tokInt, tokFloat, tokFloat}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
	if _, err := lex("1.2.3", nil); err == nil {
		t.Error("malformed number accepted")
	}
}

func TestLexStrings(t *testing.T) {
	toks := lexKinds(t, "'hello' 'it''s'")
	if toks[0].text != "hello" || toks[1].text != "it's" {
		t.Errorf("strings = %q, %q", toks[0].text, toks[1].text)
	}
	if _, err := lex("'unterminated", nil); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestLexOperators(t *testing.T) {
	toks := lexKinds(t, "< <= <> > >= = != ;")
	want := []string{"<", "<=", "<>", ">", ">=", "=", "<>", ";"}
	for i, w := range want {
		if toks[i].text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].text, w)
		}
	}
	if _, err := lex("a ! b", nil); err == nil {
		t.Error("lone '!' accepted")
	}
	if _, err := lex("a @ b", nil); err == nil {
		t.Error("'@' accepted")
	}
}

func TestLexComments(t *testing.T) {
	toks := lexKinds(t, "SELECT -- the works\n1")
	if len(toks) != 3 { // SELECT, 1, EOF
		t.Fatalf("tokens = %d, want 3", len(toks))
	}
	if toks[1].kind != tokInt {
		t.Errorf("token after comment = %v", toks[1])
	}
}

func TestLexIdentifiers(t *testing.T) {
	toks := lexKinds(t, "_tbl col_2 Grüße")
	for i, w := range []string{"_tbl", "col_2", "Grüße"} {
		if toks[i].kind != tokIdent || toks[i].text != w {
			t.Errorf("token %d = %v %q, want ident %q", i, toks[i].kind, toks[i].text, w)
		}
	}
}

// kindNames spells token kinds for lexEdges' expectations.
var kindNames = map[tokenKind]string{
	tokEOF: "eof", tokIdent: "id", tokKeyword: "kw", tokInt: "int",
	tokFloat: "float", tokString: "str", tokSymbol: "sym",
}

// lexEdges pins the lexer where its ASCII fast path re-implements what
// unicode classification and strings.ToUpper decide: each input with its
// tokens as kind:text, or with "error: " and the start of the error.
var lexEdges = []struct{ in, want string }{
	{"sElEcT Uid FrOm pol", "kw:SELECT id:Uid kw:FROM id:pol eof"},
	{"MATERIALIZED materialized MaTeRiAlIzEd", "kw:MATERIALIZED kw:MATERIALIZED kw:MATERIALIZED eof"},
	// Longer than the longest keyword, so longer than the lookup buffer.
	{"materializedx MATERIALIZED_VIEW Materializedviews", "id:materializedx id:MATERIALIZED_VIEW id:Materializedviews eof"},
	{"t1 _x9 a_b_2 x1y _ A1", "id:t1 id:_x9 id:a_b_2 id:x1y id:_ id:A1 eof"},
	{"12abc 7_", "int:12 id:abc int:7 id:_ eof"},
	// Words holding a non-ASCII rune fold through strings.ToUpper, which
	// maps ſ (long s) to S and ı (dotless i) to I.
	{"ſelect ınsert Straße Grüße a٣ Ωmega", "kw:SELECT kw:INSERT id:Straße id:Grüße id:a٣ id:Ωmega eof"},
	{" SELECT x\u0085y", "kw:SELECT id:x id:y eof"},
	{"SELECT -1 -- a comment\n- 2", "kw:SELECT sym:- int:1 sym:- int:2 eof"},
	{"a--b\nc--", "id:a id:c eof"},
	{"a != b <> c <= >= < > =", "id:a sym:<> id:b sym:<> id:c sym:<= sym:>= sym:< sym:> sym:= eof"},
	{"<<>>=", "sym:< sym:<> sym:>= eof"},
	{"'it''s' '''' '' 'a''''b' 'ü'", "str:it's str:' str: str:a''b str:ü eof"},
	{"1 2.5 3. 0.25", "int:1 float:2.5 float:3. float:0.25 eof"},
	{"(),;*=.+-", "sym:( sym:) sym:, sym:; sym:* sym:= sym:. sym:+ sym:- eof"},
	{"", "eof"},
	{"1.2.3", "error: sql: malformed number at offset 0"},
	{"SELECT * FROM t WHERE a = ٣", "error: sql: unexpected character '٣' at offset 26"},
	{"x €", "error: sql: unexpected character '€'"},
	{"a @ b", "error: sql: unexpected character '@'"},
	{"\xff", "error: sql: unexpected character '�'"},
	{"a ! b", "error: sql: unexpected '!' at offset 2"},
	{"!", "error: sql: unexpected '!'"},
	{"'open", "error: sql: unterminated string literal"},
	{"'open''", "error: sql: unterminated string literal"},
}

func TestLexEdges(t *testing.T) {
	for _, tc := range lexEdges {
		toks, err := lex(tc.in, nil)
		checkTokens(t, tc.in, toks)
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			parts := make([]string, len(toks))
			for i, tok := range toks {
				parts[i] = kindNames[tok.kind] + ":" + tok.text
			}
			got = strings.TrimSuffix(strings.Join(parts, " "), ":")
		}
		if !strings.HasPrefix(got, tc.want) || err == nil && got != tc.want {
			t.Errorf("lex(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

// TestParseInsertAllocs: an INSERT costs one array for its values, one
// for its rows, and the statement; its tokens go to a buffer on Parse's
// stack, whether a session calls it or not.
func TestParseInsertAllocs(t *testing.T) {
	const q = "INSERT INTO sess VALUES (4242, 17, 80123) EXPIRES IN 1234"
	s := NewSession(engine.New(), nil)
	for name, parse := range map[string]func(){
		"Parse":         func() { Parse(q) },
		"Session.parse": func() { s.parse(q) },
	} {
		if n := testing.AllocsPerRun(100, parse); n > 3 {
			t.Errorf("%s: %.0f allocations, want ≤ 3", name, n)
		}
	}
}

// checkTokens checks what lex promises of any input, accepted or not: at
// most one token per byte plus EOF, strictly increasing positions, and
// identifiers, numbers and symbols that are the input at their position
// (but "<>" for "!=").
func checkTokens(t *testing.T, input string, toks []token) {
	t.Helper()
	if len(toks) > len(input)+1 {
		t.Fatalf("lex(%q): %d tokens from %d bytes", input, len(toks), len(input))
	}
	for i, tok := range toks {
		if i > 0 && tok.pos <= toks[i-1].pos {
			t.Fatalf("lex(%q): token %d at %d after one at %d", input, i, tok.pos, toks[i-1].pos)
		}
		switch tok.kind {
		case tokIdent, tokInt, tokFloat, tokSymbol:
			src := input[tok.pos:min(len(input), tok.pos+len(tok.text))]
			if src != tok.text && !(tok.text == "<>" && src == "!=") {
				t.Fatalf("lex(%q): token %q at %d reads %q there", input, tok.text, tok.pos, src)
			}
		}
	}
}

// parseSeeds are the statement shapes the benchmark's four workloads and
// the experiments E1–E15 run, the shapes the parser tests use, and the
// input whose non-ASCII digit once kept lex from terminating.
var parseSeeds = []string{
	"CREATE TABLE sess (sid INT, uid INT, score INT)",
	"CREATE TABLE usr (uid INT, grp INT)",
	"CREATE TABLE pol (uid INT, deg INT)",
	"CREATE TABLE readings (sensor INT, val INT)",
	"CREATE TABLE t (name STRING, ok BOOL, score FLOAT)",
	"CREATE TRIGGER sess_expired ON sess ON EXPIRE DO NOTIFY 'session expired'",
	"CREATE INDEX sess_sid ON sess (sid)",
	"CREATE INDEX sess_score ON sess (score) USING ORDERED",
	"DROP INDEX sess_sid",
	"DROP TABLE sess",
	"INSERT INTO sess VALUES (4242, 17, 80123) EXPIRES AT 97",
	"INSERT INTO sess VALUES (4242, 17, 80123) EXPIRES IN 1234",
	"INSERT INTO pol VALUES (1, 25)",
	"INSERT INTO x VALUES (1, 10), (2, 20), (3, 30) EXPIRES NEVER",
	`INSERT INTO t VALUES ('it''s', TRUE, 2.5) -- trailing comment`,
	"INSERT INTO n VALUES (-5, NULL, FALSE, -2.5);",
	"DELETE FROM sess WHERE sid = 4242",
	"DELETE FROM sess",
	"ADVANCE TO 1000",
	"ADVANCE TO NEVER",
	"SELECT * FROM sess WHERE sid = 4242",
	"SELECT * FROM sess WHERE score >= 100 AND score < 2000",
	"SELECT sess.sid, sess.score, usr.grp FROM sess JOIN usr ON sess.uid = usr.uid WHERE usr.grp = 7 AND sess.score >= 75000",
	"SELECT uid, COUNT(*) FROM sess WHERE score >= 100 AND score < 2000 GROUP BY uid",
	"SELECT uid FROM usr WHERE grp = 7 EXCEPT SELECT uid FROM sess WHERE score >= 100 AND score < 2000",
	"SELECT pol.uid, pol.deg, el.deg FROM pol JOIN el ON pol.uid = el.uid",
	"SELECT deg, COUNT(*) FROM pol GROUP BY deg",
	"SELECT uid FROM pol UNION SELECT uid FROM el ORDER BY uid DESC LIMIT 2",
	"SELECT uid FROM pol INTERSECT SELECT uid FROM el",
	"SELECT COUNT(*), SUM(val) FROM readings WHERE sensor = 3",
	"SELECT MIN(val), MAX(val) FROM readings WHERE sensor = 3",
	"SELECT sensor, AVG(val) FROM readings WHERE val > 5 GROUP BY sensor",
	"SELECT * FROM pol WHERE NOT (deg = 25 OR uid <> 2) AND deg != 3",
	"SELECT * FROM v_hist",
	"CREATE MATERIALIZED VIEW v_diff_patch WITH (patching) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el",
	"CREATE VIEW vi WITH (mode=interval, recovery=backward) AS SELECT uid FROM pol EXCEPT SELECT uid FROM el",
	"REFRESH VIEW v_hist",
	"EXPLAIN SELECT * FROM ev WHERE v >= 10 AND v < 20",
	"EXPLAIN ANALYZE SELECT * FROM ev WHERE k = 3",
	"SET POLICY neutral",
	"SHOW HISTORY 'expdb_inserts_total' LIMIT 5",
	"SHOW EVENTS LIMIT 3",
	"SHOW METRICS",
	"SELECT * FROM t WHERE a = ٣",
}

// FuzzParse: Parse never panics and always returns, lex keeps what
// checkTokens checks on any input, and an accepted statement means the
// same with its ASCII keywords re-cased.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, tc := range lexEdges {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, _ := lex(input, nil)
		checkTokens(t, input, toks)
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		flipped := []byte(input)
		for _, tok := range toks {
			src := input[tok.pos:min(len(input), tok.pos+len(tok.text))]
			if tok.kind != tokKeyword || !strings.EqualFold(src, tok.text) || !isASCII(src) {
				continue // ſelect: not an ASCII spelling of its keyword
			}
			for i := tok.pos; i < tok.pos+len(src); i++ {
				flipped[i] ^= 0x20 // every byte of an ASCII keyword is a letter
			}
		}
		again, err := Parse(string(flipped))
		if err != nil {
			t.Fatalf("%q parses, %q does not: %v", input, flipped, err)
		}
		if !sameStatement(stmt, again) {
			t.Fatalf("%q and %q parse apart:\n%#v\n%#v", input, flipped, stmt, again)
		}
	})
}

// sameStatement compares two parses of spellings that differ in the case of
// their keywords, so in the case of the verbatim source DDL keeps.
func sameStatement(a, b Statement) bool {
	for _, st := range []Statement{a, b} {
		switch st := st.(type) {
		case *CreateView:
			st.Src = strings.ToUpper(st.Src)
		case *CreateIndex:
			st.Src = strings.ToUpper(st.Src)
		}
	}
	return reflect.DeepEqual(a, b)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
