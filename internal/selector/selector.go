package selector

import "sync/atomic"

// Selector is a compiled semantic selector: the source text paired with
// its parsed expression.  A Selector travels in message headers (as
// text) and is evaluated against client profiles at the receivers.
type Selector struct {
	src  string
	expr Expr
	memo atomic.Value // what Memo derived from expr; unset until first use
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

// Memo returns what build derives from the selector's expression,
// deriving it on the first call and keeping it on s, so it lives as
// long as s does (for a cached selector, as long as its cache entry).
// Concurrent first calls may each build; compare-and-swap keeps one
// result and every caller gets that one.  A selector holds one memo:
// every caller passes the same build, which returns a non-nil value.
func (s *Selector) Memo(build func(Expr) any) any {
	if v := s.memo.Load(); v != nil {
		return v
	}
	s.memo.CompareAndSwap(nil, build(s.expr))
	return s.memo.Load()
}

// Matches reports whether the selector is satisfied by the attribute set.
func (s *Selector) Matches(attrs Attributes) bool {
	return s.expr.Eval(attrs)
}

// String returns the source text.
func (s *Selector) String() string { return s.src }
