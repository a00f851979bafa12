package selector

import (
	"math"
	"math/rand"

	"testing"
	"testing/quick"
)

// genExpr builds a random selector expression of bounded depth.
func genExpr(r *rand.Rand, depth int) Expr {
	attrs := []string{"a", "b", "video.enc", "cpu-load", "x_1"}
	attr := func() string { return attrs[r.Intn(len(attrs))] }
	lit := func() Value {
		switch r.Intn(3) {
		case 0:
			return S(randString(r))
		case 1:
			return N(randNumber(r))
		default:
			return B(r.Intn(2) == 0)
		}
	}
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return &BoolLit{Val: r.Intn(2) == 0}
		case 1:
			return &Cmp{Attr: attr(), Op: Op(r.Intn(6)), Lit: lit()}
		case 2:
			n := 1 + r.Intn(3)
			list := make([]Value, n)
			for i := range list {
				list[i] = lit()
			}
			return &In{Attr: attr(), List: list}
		default:
			return &Exists{Attr: attr()}
		}
	}
	switch r.Intn(4) {
	case 0:
		return &And{X: genExpr(r, depth-1), Y: genExpr(r, depth-1)}
	case 1:
		return &Or{X: genExpr(r, depth-1), Y: genExpr(r, depth-1)}
	case 2:
		return &Not{X: genExpr(r, depth-1)}
	default:
		return &Like{Attr: attr(), Pattern: "img-*"}
	}
}

func randString(r *rand.Rand) string {
	const alphabet = `abcXYZ 0123"\'\n_-.`
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func randNumber(r *rand.Rand) float64 {
	// Values that round-trip through the canonical 'g' formatting.
	switch r.Intn(4) {
	case 0:
		return float64(r.Intn(2000) - 1000)
	case 1:
		return math.Trunc(r.Float64()*1e6) / 1e3
	case 2:
		return r.NormFloat64()
	default:
		return float64(r.Int63())
	}
}

func genAttributes(r *rand.Rand) Attributes {
	a := make(Attributes)
	names := []string{"a", "b", "video.enc", "cpu-load", "x_1"}
	for _, n := range names {
		if r.Intn(2) == 0 {
			continue
		}
		switch r.Intn(3) {
		case 0:
			a[n] = S(randString(r))
		case 1:
			a[n] = N(randNumber(r))
		default:
			a[n] = B(r.Intn(2) == 0)
		}
	}
	return a
}

// TestQuickFormatParseRoundTrip checks that formatting an arbitrary
// expression and re-parsing it yields a structurally identical tree.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 1+r.Intn(3))
		src := Format(e)
		parsed, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: Parse(%q) failed: %v", seed, src, err)
			return false
		}
		// Binary operators flatten associativity when printed, so compare
		// canonical forms (a fixed point of Format∘Parse) rather than trees.
		if got := Format(parsed); got != src {
			t.Logf("seed %d: round-trip mismatch:\n src: %s\n got: %s", seed, src, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvalAgreesAfterRoundTrip checks that evaluation is preserved
// by the format/parse round trip against random attribute sets.
func TestQuickEvalAgreesAfterRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 1+r.Intn(3))
		parsed, err := Parse(Format(e))
		if err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			a := genAttributes(r)
			if e.Eval(a) != parsed.Eval(a) {
				t.Logf("seed %d: eval divergence for %s on %v", seed, Format(e), a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeMorgan checks a semantic identity: not(x and y) evaluates
// identically to (not x) or (not y) for arbitrary subtrees and profiles.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := genExpr(r, 2)
		y := genExpr(r, 2)
		lhs := &Not{X: &And{X: x, Y: y}}
		rhs := &Or{X: &Not{X: x}, Y: &Not{X: y}}
		for i := 0; i < 8; i++ {
			a := genAttributes(r)
			if lhs.Eval(a) != rhs.Eval(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOpNegate checks that Cmp with the complementary operator
// evaluates as the logical complement whenever the attribute is present
// with a comparable kind (the only regime where that is meaningful).
func TestQuickOpNegate(t *testing.T) {
	negate := [...]Op{OpEq: OpNe, OpNe: OpEq, OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		op := Op(r.Intn(6))
		lit := N(randNumber(r))
		c := &Cmp{Attr: "v", Op: op, Lit: lit}
		nc := &Cmp{Attr: "v", Op: negate[op], Lit: lit}
		for i := 0; i < 16; i++ {
			a := Attributes{"v": N(randNumber(r))}
			if c.Eval(a) == nc.Eval(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
