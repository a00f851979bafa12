package selector

// Selector is a compiled semantic selector: the source text paired with
// its parsed expression.  A Selector travels in message headers (as
// text) and is evaluated against client profiles at the receivers.
type Selector struct {
	src  string
	expr Expr
}

// Compile parses src into a reusable Selector.
func Compile(src string) (*Selector, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Selector{src: src, expr: e}, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *Selector {
	s, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return s
}

// FromExpr wraps an already-built expression tree as a Selector; the
// source form is the canonical rendering of the expression.
func FromExpr(e Expr) *Selector {
	return &Selector{src: Format(e), expr: e}
}

// Source returns the selector's source text.
func (s *Selector) Source() string { return s.src }

// Expr returns the parsed expression tree.
func (s *Selector) Expr() Expr { return s.expr }

// Matches reports whether the selector is satisfied by the attribute set.
func (s *Selector) Matches(attrs Attributes) bool {
	return s.expr.Eval(attrs)
}

// String returns the source text.
func (s *Selector) String() string { return s.src }
