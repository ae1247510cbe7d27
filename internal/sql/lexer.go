// Package sql implements a small SQL dialect over the expiration-time
// engine: DDL, INSERT with an EXPIRES clause (the only place expiration
// times surface to users, per the paper's transparency goal), SELECT with
// joins, grouping and set operators, materialised views with maintenance
// options, ON EXPIRE triggers, and clock control for the logical engine
// time.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , ; * . = <> <= >= < > -
)

// token is one lexeme with its position for error messages.
type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int    // byte offset of the lexeme's first byte
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords maps each keyword of the dialect to itself: looked up by the
// bytes of an upper-cased word, it hands back the canonical string without
// allocating one. None is longer than maxKeyword.
var keywords = map[string]string{}

const maxKeyword = len("MATERIALIZED")

func init() {
	for _, k := range strings.Fields(`
		CREATE TABLE DROP INSERT INTO VALUES EXPIRES NEVER AT IN
		SELECT FROM WHERE GROUP BY JOIN ON AND OR NOT UNION EXCEPT INTERSECT
		MATERIALIZED VIEW AS WITH TRIGGER EXPIRE DO NOTIFY
		SET POLICY ADVANCE TO SHOW TABLES VIEWS TIME STATS DELETE METRICS
		MIN MAX SUM COUNT AVG
		INT INTEGER FLOAT STRING TEXT BOOL BOOLEAN TRUE FALSE NULL
		REFRESH EXPLAIN VALIDITY ORDER ASC DESC LIMIT
		ANALYZE EVENTS TRACES CACHE HISTORY HEALTH INDEX INDEXES USING`) {
		keywords[k] = k
	}
}

// lex tokenises input into toks[:0], growing it only when input has more
// lexemes than it holds, and reports the first malformed lexeme as an
// error. Identifier, number and symbol tokens are slices of input. ASCII
// is scanned a byte at a time; a byte ≥ utf8.RuneSelf is decoded and
// classified as a rune, as is every rune of a word that contains one.
func lex(input string, toks []token) ([]token, error) {
	toks = toks[:0]
	n := len(input)
	for i := 0; i < n; {
		c, start := input[i], i
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // comment to end of line
			for i < n && input[i] != '\n' {
				i++
			}
		case c >= utf8.RuneSelf || c == '_' || unicode.IsLetter(rune(c)):
			if c >= utf8.RuneSelf {
				r, w := utf8.DecodeRuneInString(input[i:])
				if unicode.IsSpace(r) {
					i += w
					continue
				}
				if !unicode.IsLetter(r) { // a non-ASCII digit starts no number
					return toks, fmt.Errorf("sql: unexpected character %q at offset %d", r, i)
				}
			}
			var nonASCII bool
			i, nonASCII = wordEnd(input, i)
			toks = append(toks, word(input[start:i], nonASCII, start))
		case isDigit(c):
			kind := tokInt
			for ; i < n && (isDigit(input[i]) || input[i] == '.'); i++ {
				if input[i] == '.' {
					if kind == tokFloat {
						return toks, fmt.Errorf("sql: malformed number at offset %d", start)
					}
					kind = tokFloat
				}
			}
			toks = append(toks, token{kind: kind, text: input[start:i], pos: start})
		case c == '\'':
			for i++; ; i++ { // to past the first quote that is not doubled
				j := strings.IndexByte(input[i:], '\'')
				if j < 0 {
					return toks, fmt.Errorf("sql: unterminated string literal")
				}
				if i += j + 1; i == n || input[i] != '\'' {
					break
				}
			}
			// A copy: the literal may be stored in a row that outlives input.
			lit := strings.ReplaceAll(strings.Clone(input[start+1:i-1]), "''", "'")
			toks = append(toks, token{kind: tokString, text: lit, pos: start})
		case c == '!':
			if i+1 == n || input[i+1] != '=' {
				return toks, fmt.Errorf("sql: unexpected '!' at offset %d", i)
			}
			toks = append(toks, token{kind: tokSymbol, text: "<>", pos: start})
			i += 2
		case c == '<' || c == '>':
			i++
			if i < n && (input[i] == '=' || c == '<' && input[i] == '>') {
				i++
			}
			toks = append(toks, token{kind: tokSymbol, text: input[start:i], pos: start})
		case strings.IndexByte("(),;*=.+-", c) >= 0:
			// '-' here is a unary minus for negative literals or the
			// subtraction-free dialect; the parser decides.
			i++
			toks = append(toks, token{kind: tokSymbol, text: input[start:i], pos: start})
		default:
			return toks, fmt.Errorf("sql: unexpected character %q at offset %d", rune(c), i)
		}
	}
	return append(toks, token{kind: tokEOF, pos: n}), nil
}

// wordEnd returns the end of the identifier or keyword at i (letters and
// digits of any script, and '_'), and whether it holds a non-ASCII rune.
func wordEnd(input string, i int) (int, bool) {
	nonASCII := false
	for i < len(input) {
		r, w := rune(input[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(input[i:])
		}
		if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		nonASCII, i = nonASCII || w > 1, i+w
	}
	return i, nonASCII
}

// word makes the token of the word w at pos: a keyword when w upper-cased
// is one, else an identifier. An ASCII word is upper-cased into a stack
// buffer; any other folds through strings.ToUpper, which may map it onto
// an ASCII keyword (ſelect is SELECT).
func word(w string, nonASCII bool, pos int) token {
	kw, ok := "", false
	if nonASCII {
		kw, ok = keywords[strings.ToUpper(w)]
	} else if len(w) <= maxKeyword {
		var up [maxKeyword]byte
		for j := range len(w) {
			if up[j] = w[j]; 'a' <= up[j] && up[j] <= 'z' {
				up[j] -= 'a' - 'A'
			}
		}
		kw, ok = keywords[string(up[:len(w)])]
	}
	if !ok {
		return token{kind: tokIdent, text: w, pos: pos}
	}
	return token{kind: tokKeyword, text: kw, pos: pos}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
