// Package selector implements the semantic selector language used by the
// publisher/subscriber messaging substrate.
//
// A selector is a propositional expression over message and profile
// attributes, e.g.
//
//	media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576
//
// Messages carry a selector describing the profiles of the clients that
// are to receive them; clients maintain attribute profiles and accept a
// message when its selector is satisfied by their profile.  The selector
// thus descriptively names a dynamic set of clients of arbitrary
// cardinality, subsuming static client or group names.
package selector

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the selector language.
const (
	KindInvalid Kind = iota
	KindString
	KindNumber
	KindBool
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value: a string, a number
// (float64) or a boolean.  The zero Value is invalid.
//
// The one-byte fields come last and share a word: a Value is 32 bytes,
// not 40, in every attribute map and slice.
type Value struct {
	str  string
	num  float64
	kind Kind
	b    bool
}

// S returns a string Value.
func S(s string) Value { return Value{kind: KindString, str: s} }

// N returns a numeric Value.
func N(f float64) Value { return Value{kind: KindNumber, num: f} }

// B returns a boolean Value.
func B(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload; it is "" for non-string values.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload; it is 0 for non-number values.
func (v Value) Num() float64 { return v.num }

// Whole returns the value as an unsigned integer if it is a whole
// number in [0, 2^53] — where a float64 counts every integer exactly —
// and reports whether it is.  A count, index or sequence number read
// off the wire goes through Whole, never a bare conversion: Go leaves
// uint64(v.Num()) implementation-defined for NaN, negatives and
// out-of-range values, and would truncate a fraction.
func (v Value) Whole() (uint64, bool) {
	n := v.num
	if v.kind != KindNumber || !(n >= 0 && n <= 1<<53) || n != math.Trunc(n) {
		return 0, false
	}
	return uint64(n), true
}

// Bool returns the boolean payload; it is false for non-bool values.
func (v Value) Bool() bool { return v.b }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.str == o.str
	case KindNumber:
		return v.num == o.num || (math.IsNaN(v.num) && math.IsNaN(o.num))
	case KindBool:
		return v.b == o.b
	default:
		return true
	}
}

// Compare orders two values of the same kind: -1, 0 or +1.  Comparing
// values of different kinds (or booleans, which are unordered) returns
// an error.
func (v Value) Compare(o Value) (int, error) {
	if v.kind != o.kind {
		return 0, fmt.Errorf("selector: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.str, o.str), nil
	case KindNumber:
		switch {
		case v.num < o.num:
			return -1, nil
		case v.num > o.num:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("selector: %s values are unordered", v.kind)
	}
}

// String renders the value as a selector-language literal.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return strconv.Quote(v.str)
	case KindNumber:
		// Integral values print without an exponent so that common
		// selectors like "size <= 1048576" keep their source form.
		if v.num == math.Trunc(v.num) && math.Abs(v.num) < 1e15 {
			return strconv.FormatFloat(v.num, 'f', -1, 64)
		}
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// Attributes is a set of named attribute values.  It is the common
// currency between message selectors and client profiles.
type Attributes map[string]Value

// Clone returns an independent copy of the attribute set.
func (a Attributes) Clone() Attributes {
	if a == nil {
		return nil
	}
	c := make(Attributes, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// SetString stores a string attribute.
func (a Attributes) SetString(name, v string) { a[name] = S(v) }

// SetNumber stores a numeric attribute.
func (a Attributes) SetNumber(name string, v float64) { a[name] = N(v) }

// SetBool stores a boolean attribute.
func (a Attributes) SetBool(name string, v bool) { a[name] = B(v) }

// Names returns the attribute names in sorted order.
func (a Attributes) Names() []string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the attribute set deterministically, for logs and tests.
func (a Attributes) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range a.Names() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", name, a[name])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Merge returns a new attribute set containing a overlaid with b;
// values in b win on conflict.
func (a Attributes) Merge(b Attributes) Attributes {
	m := a.Clone()
	if m == nil {
		m = make(Attributes, len(b))
	}
	for k, v := range b {
		m[k] = v
	}
	return m
}
