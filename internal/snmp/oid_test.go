package snmp

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseOID(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"1.3.6.1.2.1.1.1.0", "1.3.6.1.2.1.1.1.0", true},
		{".1.3.6.1", "1.3.6.1", true},
		{"0.0", "0.0", true},
		{"2.100.4294967295", "2.100.4294967295", true},
		{"", "", false},
		{"1", "", false},
		{"1.x.3", "", false},
		{"3.1", "", false},            // first arc > 2
		{"1.40", "", false},           // second arc > 39 under root 1
		{"1.3.-1", "", false},         // negative
		{"1..3", "", false},           // empty arc
		{"1.3.4294967296", "", false}, // arc > 32 bits
	}
	for _, tc := range cases {
		got, err := ParseOID(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("ParseOID(%q): %v", tc.in, err)
			} else if got.String() != tc.want {
				t.Errorf("ParseOID(%q) = %s, want %s", tc.in, got, tc.want)
			}
		} else if err == nil {
			t.Errorf("ParseOID(%q): expected error", tc.in)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustOID should panic on bad input")
		}
	}()
	MustOID("not-an-oid")
}

func TestOIDCompareAndPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.3", "1.3", 0},
		{"1.3", "1.4", -1},
		{"1.4", "1.3", 1},
		{"1.3", "1.3.1", -1},
		{"1.3.1", "1.3", 1},
		{"1.3.6.1", "1.3.6.2", -1},
	}
	for _, tc := range cases {
		a, b := MustOID(tc.a), MustOID(tc.b)
		if got := a.Compare(b); got != tc.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if !MustOID("1.3.6.1.2").HasPrefix(MustOID("1.3.6")) {
		t.Error("HasPrefix failed")
	}
	if MustOID("1.3").HasPrefix(MustOID("1.3.6")) {
		t.Error("short OID cannot have longer prefix")
	}
	if MustOID("1.4.6").HasPrefix(MustOID("1.3")) {
		t.Error("mismatched prefix accepted")
	}
	app := MustOID("1.3").Append(6, 1)
	if app.String() != "1.3.6.1" {
		t.Errorf("Append = %s", app)
	}
	orig := MustOID("1.3.6")
	cl := orig.Clone()
	cl[2] = 99
	if orig[2] != 6 {
		t.Error("Clone shares storage")
	}
	if (OID{}).String() != "" {
		t.Error("empty OID String")
	}
}

func TestOIDEncodeDecode(t *testing.T) {
	cases := []string{
		"1.3.6.1.2.1.1.1.0",
		"0.0",
		"0.39",
		"1.0",
		"2.0",
		"2.999.3", // arc > 39 allowed under root 2 in encoding (2.x packs as 80+x)
		"1.3.6.1.4.1.4294967295",
		"1.3.6.1.4.1.2021.10.1.3.1",
	}
	for _, s := range cases {
		// 2.999.3 is not parseable text per our (strict) rule? ParseOID
		// allows root 2 with any second arc.
		oid, err := ParseOID(s)
		if err != nil {
			t.Fatalf("ParseOID(%q): %v", s, err)
		}
		enc, err := appendOID(nil, oid)
		if err != nil {
			t.Fatalf("appendOID(%s): %v", s, err)
		}
		dec, err := decodeOID(nil, enc)
		if err != nil {
			t.Fatalf("decodeOID(%s): %v", s, err)
		}
		if !slices.Equal(dec, oid) {
			t.Errorf("round trip %s -> %s", oid, dec)
		}
	}

	if _, err := appendOID(nil, OID{1}); !errors.Is(err, ErrBadOID) {
		t.Errorf("one-arc encode: %v", err)
	}
	if _, err := appendOID(nil, OID{9, 9}); !errors.Is(err, ErrBadOID) {
		t.Errorf("bad first arc: %v", err)
	}
	if _, err := decodeOID(nil, nil); !errors.Is(err, ErrBadOID) {
		t.Errorf("empty decode: %v", err)
	}
	if _, err := decodeOID(nil, []byte{0x81}); !errors.Is(err, ErrBadOID) {
		t.Errorf("truncated arc: %v", err)
	}
	// Arc exceeding 32 bits: 5 continuation bytes of 0x7F payload.
	if _, err := decodeOID(nil, []byte{0x2B, 0x90, 0x80, 0x80, 0x80, 0x00}); !errors.Is(err, ErrBadOID) {
		t.Errorf("oversized arc: %v", err)
	}
	// Subidentifiers that used to wrap into smaller arcs: 2.(2^32) as the
	// first, and 2^57 followed by one more octet (shifted past 2^64).
	wraps := append([]byte{0x2B}, appendBase128(nil, 1<<57)...)
	wraps[len(wraps)-1] |= 0x80
	for _, bad := range [][]byte{appendBase128(nil, 1<<32+80), append(wraps, 0x01)} {
		if o, err := decodeOID(nil, bad); !errors.Is(err, ErrBadOID) {
			t.Errorf("decodeOID(%x) = %v, %v; want ErrBadOID", bad, o, err)
		}
	}
	if o, err := decodeOID(nil, appendBase128(nil, 1<<32+79)); err != nil || !slices.Equal(o, OID{2, 1<<32 - 1}) {
		t.Errorf("largest first subidentifier: %v, %v", o, err)
	}
}

// TestQuickOIDRoundTrip: random valid OIDs survive encode/decode.
func TestQuickOIDRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		oid := make(OID, n)
		oid[0] = uint32(r.Intn(3))
		if oid[0] < 2 {
			oid[1] = uint32(r.Intn(40))
		} else {
			oid[1] = uint32(r.Intn(1000))
		}
		for i := 2; i < n; i++ {
			oid[i] = r.Uint32()
		}
		enc, err := appendOID(nil, oid)
		if err != nil {
			return false
		}
		dec, err := decodeOID(nil, enc)
		if err != nil {
			t.Logf("seed %d: decode(%x): %v", seed, enc, err)
			return false
		}
		return slices.Equal(dec, oid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOIDCompareTotalOrder: Compare is antisymmetric and
// transitive-by-sampling, and consistent with Equal.
func TestQuickOIDCompareTotalOrder(t *testing.T) {
	gen := func(r *rand.Rand) OID {
		n := 2 + r.Intn(5)
		o := make(OID, n)
		o[0] = uint32(r.Intn(3))
		o[1] = uint32(r.Intn(3))
		for i := 2; i < n; i++ {
			o[i] = uint32(r.Intn(4))
		}
		return o
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if (a.Compare(b) == 0) != slices.Equal(a, b) {
			return false
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
