// Package sqlparser implements a lexer, AST and recursive-descent
// parser for the HiveQL subset DualTable needs: SELECT with joins,
// grouping and ordering; INSERT INTO / INSERT OVERWRITE; the UPDATE,
// DELETE and COMPACT statements the paper adds to HiveQL (§V-A); and
// DDL (CREATE/DROP TABLE, LOAD DATA). Scalar subqueries are supported
// in expressions because the paper's motivating UPDATE statement
// (Listing 1) assigns from a correlated subquery.
//
// The parser pulls one token at a time from the lexer, looking at most
// two tokens past the current one; no slice of tokens is built, so
// parsing a statement allocates memory for the tree it builds, not for
// the length of its text.
//
// A statement reports the first error in its text, with its line and
// column (the column counts bytes), and the parse stops there: every
// later token reads as the end of input, so the parse methods return
// nodes only and the entry points check the error once. A lexical
// error counts where the parser reaches the token it spoils, so a
// parse error earlier in the text wins over it.
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
	tokOp  // operators and punctuation
	tokErr // a lexical error; Text is its message
)

// token is one lexical token with its source position.
type token struct {
	Kind tokenKind
	Text string // keywords are upper-cased; idents keep original case
	Pos  int    // byte offset
}

func (t token) String() string {
	if t.Kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords recognized by the lexer, each mapped to itself. Anything
// else alphanumeric is an identifier.
var keywords = map[string]string{}

func init() {
	for _, kw := range strings.Fields(`
		SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT ASC DESC
		INSERT INTO OVERWRITE TABLE VALUES UPDATE SET DELETE
		CREATE DROP IF NOT EXISTS STORED AS LOAD DATA INPATH
		JOIN INNER LEFT RIGHT FULL OUTER CROSS ON AND OR
		IN IS NULL LIKE BETWEEN TRUE FALSE CASE WHEN THEN
		ELSE END CAST DISTINCT ALL UNION COMPACT SHOW TABLES
		DESCRIBE EXPLAIN ANALYZE WITH PARTITIONED TBLPROPERTIES OF EPOCH`) {
		keywords[kw] = kw
	}
}

// keyword returns the keyword that word spells in any case, or "". An
// ASCII word is upper-cased on the stack; any other goes through
// strings.ToUpper, which maps a few non-ASCII letters onto ASCII ones
// (ı to I, ſ to S).
func keyword(word string) string {
	var up [len("TBLPROPERTIES")]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		switch {
		case c >= utf8.RuneSelf:
			return keywords[strings.ToUpper(word)]
		case i == len(up): // too long, even once upper-cased
			return ""
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return keywords[string(up[:len(word)])]
}

// lexer reads a SQL string one token at a time.
type lexer struct {
	src string
	pos int
}

// errorAt builds the error for msg at byte offset pos of src. Lines
// and columns count from 1; a column counts bytes.
func errorAt(src string, pos int, msg string) error {
	line := 1 + strings.Count(src[:pos], "\n")
	col := pos - strings.LastIndexByte(src[:pos], '\n')
	return fmt.Errorf("sql: line %d col %d: %s", line, col, msg)
}

// fail returns an error token at the cursor and moves the cursor to
// the end, so that every later token is the end of input.
func (l *lexer) fail(format string, args ...interface{}) token {
	t := token{Kind: tokErr, Text: fmt.Sprintf(format, args...), Pos: l.pos}
	l.pos = len(l.src)
	return t
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// skipSpaceAndComments consumes whitespace, -- line comments and
// /* */ block comments. It reports false at a block comment that does
// not end, with the cursor at the end of the source.
func (l *lexer) skipSpaceAndComments() bool {
	for l.pos < len(l.src) {
		rest := l.src[l.pos:]
		switch {
		case rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r' || rest[0] == '\n':
			l.pos++
		case strings.HasPrefix(rest, "--"):
			if i := strings.IndexByte(rest, '\n'); i >= 0 {
				l.pos += i
			} else {
				l.pos = len(l.src)
			}
		case strings.HasPrefix(rest, "/*"):
			i := strings.Index(rest[2:], "*/")
			if i < 0 {
				l.pos = len(l.src)
				return false
			}
			l.pos += i + 4
		default:
			return true
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// next returns the next token: the end of input at the end of the
// source and after an error token.
func (l *lexer) next() token {
	if !l.skipSpaceAndComments() {
		return l.fail("unterminated block comment")
	}
	tok := token{Pos: l.pos}
	if l.pos >= len(l.src) {
		tok.Kind = tokEOF
		return tok
	}
	// An invalid byte decodes as utf8.RuneError of width 1.
	b := l.src[l.pos]
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	switch {
	case r == utf8.RuneError && w == 1:
		return l.fail("invalid UTF-8 byte %#x", b)
	case isIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) {
			r, w := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentPart(r) || r == utf8.RuneError && w == 1 {
				break
			}
			l.pos += w
		}
		tok.Kind, tok.Text = tokIdent, l.src[start:l.pos]
		if kw := keyword(tok.Text); kw != "" {
			tok.Kind, tok.Text = tokKeyword, kw
		}
		return tok
	case isDigit(b) || b == '.' && isDigit(l.peekByteAt(1)):
		start, dot, exp := l.pos, false, false
	number:
		for l.pos < len(l.src) {
			switch c, n := l.src[l.pos], l.peekByteAt(1); {
			case isDigit(c):
			case c == '.' && !dot && !exp:
				dot = true
			case (c == 'e' || c == 'E') && !exp && (isDigit(n) || n == '+' || n == '-'):
				exp = true
				if n == '+' || n == '-' {
					l.pos++
				}
			default:
				break number
			}
			l.pos++
		}
		tok.Kind, tok.Text = tokNumber, l.src[start:l.pos]
		return tok
	case b == '\'':
		return l.stringLiteral(tok)
	case b == '`':
		// Back-quoted identifier (HiveQL).
		end := strings.IndexByte(l.src[l.pos+1:], '`')
		if end < 0 {
			l.pos = len(l.src)
			return l.fail("unterminated quoted identifier")
		}
		tok.Kind = tokIdent
		tok.Text = l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return tok
	default:
		// Multi-byte operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "!=", "<>", "==":
			l.pos += 2
			tok.Kind, tok.Text = tokOp, two
			switch two {
			case "<>":
				tok.Text = "!="
			case "==":
				tok.Text = "="
			}
			return tok
		}
		switch b {
		case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';', '?':
			tok.Kind = tokOp
			tok.Text = l.src[l.pos : l.pos+1]
			l.pos++
			return tok
		}
		return l.fail("unexpected character %q", string(b))
	}
}

// stringLiteral reads the quoted string at the cursor into tok. A
// literal without escapes is a substring of the source; one with a
// doubled quote or a Hive-style backslash escape is decoded into a
// new string.
func (l *lexer) stringLiteral(tok token) token {
	start := l.pos + 1
	if end := strings.IndexAny(l.src[start:], `'\`); end >= 0 && l.src[start+end] == '\'' && l.peekByteAt(end+2) != '\'' {
		l.pos = start + end + 1
		tok.Kind, tok.Text = tokString, l.src[start:start+end]
		return tok
	}
	l.pos = start
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return l.fail("unterminated string literal")
		}
		c := l.src[l.pos]
		l.pos++
		if c == '\'' {
			if l.peekByteAt(0) == '\'' { // escaped quote
				l.pos++
				sb.WriteByte('\'')
				continue
			}
			break
		}
		if c == '\\' && l.pos < len(l.src) {
			// Hive-style backslash escapes.
			e := l.src[l.pos]
			l.pos++
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default: // \\, \' and any other character stand for themselves
				sb.WriteByte(e)
			}
			continue
		}
		sb.WriteByte(c)
	}
	tok.Kind, tok.Text = tokString, sb.String()
	return tok
}

// StatementHeads reads src with the lexer alone and calls head with
// the first token of each ';'-separated statement in turn: a keyword
// upper-cased, "" for any other token. Empty statements are skipped,
// as ParseScript skips them, and a comment, a string literal or a
// back-quoted name can neither hide nor fake a keyword or a ';'. The
// scan stops when head returns false; it returns the lexical error it
// meets, if any.
func StatementHeads(src string, head func(string) bool) error {
	l := lexer{src: src}
	start := true
	for {
		t := l.next()
		switch {
		case t.Kind == tokEOF:
			return nil
		case t.Kind == tokErr:
			return errorAt(src, t.Pos, t.Text)
		case t.Kind == tokOp && t.Text == ";":
			start = true
		case start:
			start = false
			kw := ""
			if t.Kind == tokKeyword {
				kw = t.Text
			}
			if !head(kw) {
				return nil
			}
		}
	}
}
