package selector

import "fmt"

// Parse compiles a selector expression into an evaluable Expr.
//
// Grammar (precedence lowest to highest):
//
//	expr       = orExpr .
//	orExpr     = andExpr { ("or" | "||") andExpr } .
//	andExpr    = notExpr { ("and" | "&&") notExpr } .
//	notExpr    = ("not" | "!") notExpr | primary .
//	primary    = "(" expr ")" | "true" | "false"
//	           | "exists" "(" ident ")"
//	           | ident relOp literal
//	           | ident "in" "[" literal { "," literal } "]"
//	           | ident "like" string .
//	relOp      = "==" | "=" | "!=" | "<>" | "<" | "<=" | ">" | ">=" .
//	literal    = string | number | "true" | "false" .
//
// Identifiers may contain letters, digits, '_', '-' and '.', permitting
// dotted attribute names such as "video.encoding".
func Parse(src string) (Expr, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s after expression", p.tok.kind)
	}
	return e, nil
}

type parser struct {
	lex lexer
	tok token
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errorf("expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Or{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &And{X: left, Y: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.tok.kind == tokNot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokTrue:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &BoolLit{Val: true}, nil
	case tokFalse:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &BoolLit{Val: false}, nil
	case tokExists:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected attribute name in exists(), found %s", p.tok.kind)
		}
		attr := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &Exists{Attr: attr}, nil
	case tokIdent:
		return p.parsePredicate()
	default:
		return nil, p.errorf("expected expression, found %s", p.tok.kind)
	}
}

// parsePredicate parses a comparison, 'in' or 'like' predicate whose
// left operand is the attribute name currently in p.tok.
func (p *parser) parsePredicate() (Expr, error) {
	attr := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		op := map[tokenKind]Op{
			tokEq: OpEq, tokNe: OpNe, tokLt: OpLt,
			tokLe: OpLe, tokGt: OpGt, tokGe: OpGe,
		}[p.tok.kind]
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Cmp{Attr: attr, Op: op, Lit: lit}, nil
	case tokIn:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		var list []Value
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			list = append(list, lit)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		return &In{Attr: attr, List: list}, nil
	case tokLike:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("'like' requires a string pattern, found %s", p.tok.kind)
		}
		pat := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Like{Attr: attr, Pattern: pat}, nil
	default:
		return nil, p.errorf("expected comparison operator, 'in' or 'like' after attribute %q, found %s", attr, p.tok.kind)
	}
}

func (p *parser) parseLiteral() (Value, error) {
	switch p.tok.kind {
	case tokString:
		v := S(p.tok.text)
		return v, p.advance()
	case tokNumber:
		v := N(p.tok.num)
		return v, p.advance()
	case tokTrue:
		return B(true), p.advance()
	case tokFalse:
		return B(false), p.advance()
	default:
		return Value{}, p.errorf("expected literal, found %s", p.tok.kind)
	}
}
