// Package sqlparser implements a lexer, AST and recursive-descent
// parser for the HiveQL subset DualTable needs: SELECT with joins,
// grouping and ordering; INSERT INTO / INSERT OVERWRITE; the UPDATE,
// DELETE and COMPACT statements the paper adds to HiveQL (§V-A); and
// DDL (CREATE/DROP TABLE, LOAD DATA). Scalar subqueries are supported
// in expressions because the paper's motivating UPDATE statement
// (Listing 1) assigns from a correlated subquery.
//
// The parser keeps the first error it meets, with its line and column,
// and stops there: every later token reads as the end of input, so the
// parse methods return nodes only and the entry points check the error
// once.
//
// A statement that nests deeper than 1000 levels fails with "statement
// nests deeper than 1000 levels" (see maxNesting). Everything that
// recurses over a parsed tree relies on that bound, downstream of the
// parser too: the printers, BindStatement, the walkers and the engine's
// expression compiler recurse once per level, and a goroutine stack
// overflow kills the process.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"dualtable/internal/freelist"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

// Token kinds.
const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp // operators and punctuation
)

// token is one lexical token with its source position.
type token struct {
	Kind tokenKind
	Text string // keywords are upper-cased; idents keep original case
	Pos  int    // byte offset
	Line int
	Col  int
}

func (t token) String() string {
	if t.Kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords recognized by the lexer. Anything else alphanumeric is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "OVERWRITE": true, "TABLE": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "DROP": true, "IF": true, "NOT": true, "EXISTS": true,
	"STORED": true, "AS": true, "LOAD": true, "DATA": true, "INPATH": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true, "ON": true, "AND": true, "OR": true,
	"IN": true, "IS": true, "NULL": true, "LIKE": true, "BETWEEN": true,
	"TRUE": true, "FALSE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "DISTINCT": true, "ALL": true,
	"UNION": true, "COMPACT": true, "SHOW": true, "TABLES": true,
	"DESCRIBE": true, "EXPLAIN": true, "ANALYZE": true, "WITH": true,
	"PARTITIONED": true, "TBLPROPERTIES": true, "OF": true, "EPOCH": true,
}

// lexer tokenizes a SQL string.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: line %d col %d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	b := l.src[l.pos]
	l.pos++
	if b == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return b
}

// skipSpaceAndComments consumes whitespace, -- line comments and
// /* */ block comments.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		b := l.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			l.advance()
		case b == '-' && l.peekByteAt(1) == '-':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case b == '/' && l.peekByteAt(1) == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// peekRune decodes the UTF-8 rune at the cursor and its width; an
// invalid byte decodes as utf8.RuneError of width 1.
func (l *lexer) peekRune() (rune, int) {
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	tok := token{Pos: l.pos, Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = tokEOF
		return tok, nil
	}
	b := l.peekByte()
	r, w := l.peekRune()
	switch {
	case r == utf8.RuneError && w == 1:
		return token{}, l.errf("invalid UTF-8 byte %#x", b)
	case isIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) {
			r, w := l.peekRune()
			if !isIdentPart(r) || r == utf8.RuneError && w == 1 {
				break
			}
			for range w {
				l.advance()
			}
		}
		text := l.src[start:l.pos]
		upper := strings.ToUpper(text)
		if keywords[upper] {
			tok.Kind = tokKeyword
			tok.Text = upper
		} else {
			tok.Kind = tokIdent
			tok.Text = text
		}
		return tok, nil
	case b >= '0' && b <= '9' || (b == '.' && l.peekByteAt(1) >= '0' && l.peekByteAt(1) <= '9'):
		start := l.pos
		seenDot := false
		seenExp := false
		for l.pos < len(l.src) {
			c := l.peekByte()
			switch {
			case c >= '0' && c <= '9':
				l.advance()
			case c == '.' && !seenDot && !seenExp:
				seenDot = true
				l.advance()
			case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
				next := l.peekByteAt(1)
				if next >= '0' && next <= '9' || next == '+' || next == '-' {
					seenExp = true
					l.advance()
					if l.peekByte() == '+' || l.peekByte() == '-' {
						l.advance()
					}
					continue
				}
				goto numDone
			default:
				goto numDone
			}
		}
	numDone:
		tok.Kind = tokNumber
		tok.Text = l.src[start:l.pos]
		return tok, nil
	case b == '\'':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated string literal")
			}
			c := l.advance()
			if c == '\'' {
				if l.peekByte() == '\'' { // escaped quote
					l.advance()
					sb.WriteByte('\'')
					continue
				}
				break
			}
			if c == '\\' && l.pos < len(l.src) {
				// Hive-style backslash escapes.
				e := l.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\':
					sb.WriteByte('\\')
				case '\'':
					sb.WriteByte('\'')
				default:
					sb.WriteByte(e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		tok.Kind = tokString
		tok.Text = sb.String()
		return tok, nil
	case b == '`':
		// Back-quoted identifier (HiveQL).
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '`' {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated quoted identifier")
		}
		text := l.src[start:l.pos]
		l.advance()
		tok.Kind = tokIdent
		tok.Text = text
		return tok, nil
	default:
		// Multi-byte operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "!=", "<>", "==":
			l.advance()
			l.advance()
			tok.Kind = tokOp
			if two == "<>" {
				two = "!="
			}
			if two == "==" {
				two = "="
			}
			tok.Text = two
			return tok, nil
		}
		switch b {
		case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';', '?':
			tok.Kind = tokOp
			tok.Text = l.src[l.pos : l.pos+1]
			l.advance()
			return tok, nil
		}
		return token{}, l.errf("unexpected character %q", string(b))
	}
}

// tokenize runs the lexer to EOF, appending the tokens to toks.
func tokenize(src string, toks []token) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for {
		t, err := l.next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

// tokenBufs lends the slices statements are lexed into. A parser holds
// its tokens only while it parses — the tree keeps their texts, never a
// token — so the next statement can reuse the slice instead of growing
// a new one by doubling.
var tokenBufs = freelist.New[[]token]()

// maxPooledTokens bounds the slices tokenBufs keeps, so that one huge
// statement does not stay pinned in it.
const maxPooledTokens = 4096

// lex tokenizes src into a slice borrowed from tokenBufs, which
// releaseTokens hands back.
func lex(src string) (*[]token, error) {
	buf := tokenBufs.Get()
	toks, err := tokenize(src, (*buf)[:0])
	*buf = toks
	return buf, err
}

// releaseTokens returns a slice lex borrowed, its tokens cleared: their
// texts would pin the statement's source.
func releaseTokens(buf *[]token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf)
	tokenBufs.Put(buf)
}
