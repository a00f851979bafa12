package selector

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens of the selector language.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokAnd    // and, &&
	tokOr     // or, ||
	tokNot    // not, !
	tokTrue   // true
	tokFalse  // false
	tokIn     // in
	tokLike   // like
	tokExists // exists
	tokEq     // ==, =
	tokNe     // !=, <>
	tokLt     // <
	tokLe     // <=
	tokGt     // >
	tokGe     // >=
	tokLParen // (
	tokRParen // )
	tokLBrack // [
	tokRBrack // ]
	tokComma  // ,
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokAnd:
		return "'and'"
	case tokOr:
		return "'or'"
	case tokNot:
		return "'not'"
	case tokTrue:
		return "'true'"
	case tokFalse:
		return "'false'"
	case tokIn:
		return "'in'"
	case tokLike:
		return "'like'"
	case tokExists:
		return "'exists'"
	case tokEq:
		return "'=='"
	case tokNe:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokGt:
		return "'>'"
	case tokGe:
		return "'>='"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokComma:
		return "','"
	default:
		return "unknown token"
	}
}

// token is a single lexeme with its source position (byte offset).
type token struct {
	kind tokenKind
	text string  // identifier or decoded string literal
	num  float64 // numeric payload for tokNumber
	pos  int
}

var keywords = map[string]tokenKind{
	"and":    tokAnd,
	"or":     tokOr,
	"not":    tokNot,
	"true":   tokTrue,
	"false":  tokFalse,
	"in":     tokIn,
	"like":   tokLike,
	"exists": tokExists,
}

// lexer scans a selector expression into tokens.
type lexer struct {
	src string
	pos int
}

// SyntaxError describes a lexical or grammatical error in a selector
// expression, with the byte offset at which it occurred.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("selector: syntax error at offset %d: %s", e.Pos, e.Msg)
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		l.pos += sz
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// next scans and returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case '[':
		l.pos++
		return token{kind: tokLBrack, pos: start}, nil
	case ']':
		l.pos++
		return token{kind: tokRBrack, pos: start}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case '=':
		l.pos++
		if l.peekByte() == '=' {
			l.pos++
		}
		return token{kind: tokEq, pos: start}, nil
	case '!':
		l.pos++
		if l.peekByte() == '=' {
			l.pos++
			return token{kind: tokNe, pos: start}, nil
		}
		return token{kind: tokNot, pos: start}, nil
	case '<':
		l.pos++
		switch l.peekByte() {
		case '=':
			l.pos++
			return token{kind: tokLe, pos: start}, nil
		case '>':
			l.pos++
			return token{kind: tokNe, pos: start}, nil
		}
		return token{kind: tokLt, pos: start}, nil
	case '>':
		l.pos++
		if l.peekByte() == '=' {
			l.pos++
			return token{kind: tokGe, pos: start}, nil
		}
		return token{kind: tokGt, pos: start}, nil
	case '&':
		if strings.HasPrefix(l.src[l.pos:], "&&") {
			l.pos += 2
			return token{kind: tokAnd, pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected '&'")
	case '|':
		if strings.HasPrefix(l.src[l.pos:], "||") {
			l.pos += 2
			return token{kind: tokOr, pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected '|'")
	case '"', '\'':
		return l.scanString()
	}

	if c == '+' || c == '-' || (c >= '0' && c <= '9') {
		return l.scanNumber()
	}

	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	if isIdentStart(r) {
		return l.scanIdent()
	}
	return token{}, l.errorf(start, "unexpected character %q", r)
}

func (l *lexer) scanString() (token, error) {
	start := l.pos
	quote := l.src[l.pos]
	l.pos++
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errorf(start, "unterminated string literal")
			}
			if l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			// Every escape Go's double-quoted strings have: Format writes
			// literals with strconv.Quote, and must read back.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return token{}, l.errorf(l.pos+1, "unknown escape '\\%c'", l.src[l.pos+1])
			}
			if multibyte {
				sb.WriteRune(r)
			} else {
				sb.WriteByte(byte(r))
			}
			l.pos = len(l.src) - len(tail)
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func (l *lexer) scanNumber() (token, error) {
	start := l.pos
	if c := l.src[l.pos]; c == '+' || c == '-' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
			digits++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		mark := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		expDigits := 0
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
			expDigits++
		}
		if expDigits == 0 {
			l.pos = mark // "12e" is number 12 followed by ident "e"... reject instead
			return token{}, l.errorf(mark, "malformed exponent in number")
		}
	}
	if digits == 0 {
		return token{}, l.errorf(start, "malformed number")
	}
	text := l.src[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errorf(start, "malformed number %q", text)
	}
	return token{kind: tokNumber, num: f, pos: start}, nil
}

func (l *lexer) scanIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += sz
	}
	text := l.src[start:l.pos]
	if kw, ok := keywords[strings.ToLower(text)]; ok {
		return token{kind: kw, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}
