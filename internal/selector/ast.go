package selector

import (
	"path"
	"strings"
)

// Op is a comparison operator in the selector language.
type Op uint8

// Comparison operators.
const (
	OpEq Op = iota // ==
	OpNe           // !=
	OpLt           // <
	OpLe           // <=
	OpGt           // >
	OpGe           // >=
)

// String returns the operator's source form.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "??"
	}
}

// Expr is a node of the selector abstract syntax tree.  Eval reports
// whether the expression is satisfied by the attribute set; missing
// attributes make comparisons unsatisfied (use Exists to test presence).
type Expr interface {
	// Eval evaluates the expression against an attribute set.
	Eval(attrs Attributes) bool
	// append renders the expression in canonical source form.
	append(sb *strings.Builder)
}

// BoolLit is the constant true or false.
type BoolLit struct{ Val bool }

// Eval implements Expr.
func (b *BoolLit) Eval(Attributes) bool { return b.Val }

func (b *BoolLit) append(sb *strings.Builder) {
	if b.Val {
		sb.WriteString("true")
	} else {
		sb.WriteString("false")
	}
}

// Cmp compares an attribute against a literal value.
type Cmp struct {
	Attr string
	Op   Op
	Lit  Value
}

// Eval implements Expr.  A missing attribute or a kind mismatch makes
// the comparison false (and its negation, !=, true only when the
// attribute is present with a different value of the same kind —
// mirroring SQL-style semantics would treat it as unknown; we follow
// the simpler "absent never matches" rule and surface presence via
// Exists).
func (c *Cmp) Eval(attrs Attributes) bool {
	v, ok := attrs[c.Attr]
	if !ok {
		return false
	}
	switch c.Op {
	case OpEq:
		return v.Equal(c.Lit)
	case OpNe:
		return v.Kind() == c.Lit.Kind() && !v.Equal(c.Lit)
	default:
		r, err := v.Compare(c.Lit)
		if err != nil {
			return false
		}
		switch c.Op {
		case OpLt:
			return r < 0
		case OpLe:
			return r <= 0
		case OpGt:
			return r > 0
		default: // OpGe
			return r >= 0
		}
	}
}

func (c *Cmp) append(sb *strings.Builder) {
	sb.WriteString(c.Attr)
	sb.WriteByte(' ')
	sb.WriteString(c.Op.String())
	sb.WriteByte(' ')
	sb.WriteString(c.Lit.String())
}

// In tests whether an attribute equals any member of a literal list.
type In struct {
	Attr string
	List []Value
}

// Eval implements Expr.
func (in *In) Eval(attrs Attributes) bool {
	v, ok := attrs[in.Attr]
	if !ok {
		return false
	}
	for _, lit := range in.List {
		if v.Equal(lit) {
			return true
		}
	}
	return false
}

func (in *In) append(sb *strings.Builder) {
	sb.WriteString(in.Attr)
	sb.WriteString(" in [")
	for i, lit := range in.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(lit.String())
	}
	sb.WriteByte(']')
}

// Like matches a string attribute against a glob pattern with the
// syntax of path.Match ('*', '?', character classes).
type Like struct {
	Attr    string
	Pattern string
}

// Eval implements Expr.
func (lk *Like) Eval(attrs Attributes) bool {
	v, ok := attrs[lk.Attr]
	if !ok || v.Kind() != KindString {
		return false
	}
	matched, err := path.Match(lk.Pattern, v.Str())
	return err == nil && matched
}

func (lk *Like) append(sb *strings.Builder) {
	sb.WriteString(lk.Attr)
	sb.WriteString(" like ")
	sb.WriteString(S(lk.Pattern).String())
}

// Exists tests whether an attribute is present, regardless of value.
type Exists struct{ Attr string }

// Eval implements Expr.
func (e *Exists) Eval(attrs Attributes) bool {
	_, ok := attrs[e.Attr]
	return ok
}

func (e *Exists) append(sb *strings.Builder) {
	sb.WriteString("exists(")
	sb.WriteString(e.Attr)
	sb.WriteByte(')')
}

// Not negates its operand.
type Not struct{ X Expr }

// Eval implements Expr.
func (n *Not) Eval(attrs Attributes) bool { return !n.X.Eval(attrs) }

func (n *Not) append(sb *strings.Builder) {
	sb.WriteString("not ")
	if needsParens(n.X) {
		sb.WriteByte('(')
		n.X.append(sb)
		sb.WriteByte(')')
	} else {
		n.X.append(sb)
	}
}

// And is the conjunction of its operands.
type And struct{ X, Y Expr }

// Eval implements Expr.
func (a *And) Eval(attrs Attributes) bool { return a.X.Eval(attrs) && a.Y.Eval(attrs) }

func (a *And) append(sb *strings.Builder) {
	appendOperand(sb, a.X, true)
	sb.WriteString(" and ")
	appendOperand(sb, a.Y, true)
}

// Or is the disjunction of its operands.
type Or struct{ X, Y Expr }

// Eval implements Expr.
func (o *Or) Eval(attrs Attributes) bool { return o.X.Eval(attrs) || o.Y.Eval(attrs) }

func (o *Or) append(sb *strings.Builder) {
	appendOperand(sb, o.X, false)
	sb.WriteString(" or ")
	appendOperand(sb, o.Y, false)
}

// needsParens reports whether x must be parenthesized when it appears
// as the operand of a unary not.
func needsParens(x Expr) bool {
	switch x.(type) {
	case *And, *Or:
		return true
	}
	return false
}

// appendOperand renders x as an operand of a binary operator,
// parenthesizing a lower-precedence 'or' under an 'and'.
func appendOperand(sb *strings.Builder, x Expr, underAnd bool) {
	if _, isOr := x.(*Or); isOr && underAnd {
		sb.WriteByte('(')
		x.append(sb)
		sb.WriteByte(')')
		return
	}
	x.append(sb)
}

// Format renders the expression in canonical source form; parsing the
// result yields a structurally identical expression.
func Format(e Expr) string {
	var sb strings.Builder
	e.append(&sb)
	return sb.String()
}
