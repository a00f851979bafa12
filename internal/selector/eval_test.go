package selector

import (
	"math"
	"testing"
	"unsafe"
)

func attrs(pairs ...any) Attributes {
	a := make(Attributes)
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
		switch v := pairs[i+1].(type) {
		case string:
			a[name] = S(v)
		case float64:
			a[name] = N(v)
		case int:
			a[name] = N(float64(v))
		case bool:
			a[name] = B(v)
		default:
			panic("bad attr")
		}
	}
	return a
}

func TestEval(t *testing.T) {
	cases := []struct {
		src   string
		attrs Attributes
		want  bool
	}{
		{`true`, nil, true},
		{`false`, nil, false},
		{`media == "video"`, attrs("media", "video"), true},
		{`media == "video"`, attrs("media", "audio"), false},
		{`media == "video"`, attrs(), false}, // absent never matches
		{`media != "video"`, attrs("media", "audio"), true},
		{`media != "video"`, attrs(), false}, // absent never matches, even !=
		{`media != "video"`, attrs("media", 3), false},
		{`size <= 1048576`, attrs("size", 1048576), true},
		{`size <= 1048576`, attrs("size", 1048577), false},
		{`size < 5`, attrs("size", 4.999), true},
		{`size > 5`, attrs("size", 5), false},
		{`size >= 5`, attrs("size", 5), true},
		{`size > "abc"`, attrs("size", 5), false}, // kind mismatch
		{`name > "alpha"`, attrs("name", "beta"), true},
		{`flag == true`, attrs("flag", true), true},
		{`flag < true`, attrs("flag", false), false}, // bools unordered
		{`enc in ["MPEG2", "JPEG"]`, attrs("enc", "JPEG"), true},
		{`enc in ["MPEG2", "JPEG"]`, attrs("enc", "H261"), false},
		{`rate in [1, 2, 4]`, attrs("rate", 4), true},
		{`rate in [1, 2, 4]`, attrs("rate", 3), false},
		{`name like "img-*"`, attrs("name", "img-042"), true},
		{`name like "img-*"`, attrs("name", "doc-042"), false},
		{`name like "img-?"`, attrs("name", "img-4"), true},
		{`name like "img-?"`, attrs("name", "img-42"), false},
		{`name like "*"`, attrs("name", 42), false}, // like on non-string
		{`exists(x)`, attrs("x", 0), true},
		{`exists(x)`, attrs("y", 0), false},
		{`not exists(x)`, attrs("y", 0), true},
		{`a == 1 and b == 2`, attrs("a", 1, "b", 2), true},
		{`a == 1 and b == 2`, attrs("a", 1, "b", 3), false},
		{`a == 1 or b == 2`, attrs("a", 0, "b", 2), true},
		{`a == 1 or b == 2`, attrs("a", 0, "b", 0), false},
		{`a == 1 and b == 2 or c == 3`, attrs("c", 3), true},
		{`a == 1 and (b == 2 or c == 3)`, attrs("a", 1, "c", 3), true},
		{`a == 1 and (b == 2 or c == 3)`, attrs("c", 3), false},
		{`not (a == 1 and b == 2)`, attrs("a", 1, "b", 2), false},
		{`not (a == 1 and b == 2)`, attrs("a", 1), true},
	}
	for _, tc := range cases {
		e := mustParse(tc.src)
		if got := e.Eval(tc.attrs); got != tc.want {
			t.Errorf("Eval(%q, %v) = %v, want %v", tc.src, tc.attrs, got, tc.want)
		}
	}
}

// TestFigure3SemanticInterpretation reproduces the paper's Figure 3
// worked example: an incoming stream described as color video with
// MPEG2 compression and 1 MB of data, evaluated against three client
// profiles.  Profile 1 matches directly; Profile 2 (B/W, no encoding)
// rejects; Profile 3 (color JPEG) does not match directly but the
// client advertises an MPEG2→JPEG transformation capability, so the
// message is accepted with a transformation (the capability check
// itself lives in the media/profile layers; here we verify the
// selector-level accept/reject decisions that drive it).
func TestFigure3SemanticInterpretation(t *testing.T) {
	sel := MustCompile(
		`media == "video" and color == true and encoding == "MPEG2" and size <= 1048576`)

	profile1 := attrs("media", "video", "color", true, "encoding", "MPEG2", "size", 1048576)
	profile2 := attrs("media", "video", "color", false, "size", 1048576) // B/W, no encoding
	profile3 := attrs("media", "video", "color", true, "encoding", "JPEG", "size", 1048576)

	if !sel.Matches(profile1) {
		t.Error("profile 1 should accept the MPEG2 color video message")
	}
	if sel.Matches(profile2) {
		t.Error("profile 2 (B/W, no encoding) should reject the message")
	}
	if sel.Matches(profile3) {
		t.Error("profile 3 should not match directly (it needs a transformation)")
	}

	// Profile 3's transformation capability is expressed by relaxing the
	// encoding term to the set the client can reach via transformers.
	relaxed := MustCompile(
		`media == "video" and color == true and encoding in ["MPEG2", "JPEG"] and size <= 1048576`)
	if !relaxed.Matches(profile3) {
		t.Error("profile 3 should accept once MPEG2->JPEG transformation is considered")
	}
}

func TestValueSemantics(t *testing.T) {
	if !S("a").Equal(S("a")) || S("a").Equal(S("b")) || S("a").Equal(N(1)) {
		t.Error("string equality broken")
	}
	if !N(2).Equal(N(2)) || N(2).Equal(N(3)) {
		t.Error("number equality broken")
	}
	nan := N(math.NaN())
	if !nan.Equal(nan) {
		t.Error("NaN should equal itself under attribute semantics")
	}
	if !B(true).Equal(B(true)) || B(true).Equal(B(false)) {
		t.Error("bool equality broken")
	}
	if v := (Value{}); v.Kind() != KindInvalid {
		t.Error("zero Value should be invalid")
	}
	if _, err := S("a").Compare(N(1)); err == nil {
		t.Error("cross-kind compare should error")
	}
	if _, err := B(true).Compare(B(false)); err == nil {
		t.Error("bool compare should error")
	}
	if c, err := S("a").Compare(S("b")); err != nil || c != -1 {
		t.Errorf("string compare = %d, %v", c, err)
	}
	if got := N(1000).String(); got != "1000" {
		t.Errorf("N(1000).String() = %q", got)
	}
	if got := S("x\"y").String(); got != `"x\"y"` {
		t.Errorf("S quoting = %q", got)
	}
	if got := (Value{}).String(); got != "<invalid>" {
		t.Errorf("invalid Value String = %q", got)
	}
	for _, k := range []Kind{KindInvalid, KindString, KindNumber, KindBool} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
}

// TestValueSize pins the field order that packs Value's kind and bool
// payload into one word: every attribute map group and every received
// message's attribute slice holds Values.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestAttributesHelpers(t *testing.T) {
	a := make(Attributes)
	a.SetString("s", "v")
	a.SetNumber("n", 3.5)
	a.SetBool("b", true)

	if v, ok := a["s"]; !ok || v.Str() != "v" {
		t.Error("SetString(s) failed")
	}
	names := a.Names()
	if len(names) != 3 || names[0] != "b" || names[1] != "n" || names[2] != "s" {
		t.Errorf("Names = %v", names)
	}
	if got := a.String(); got != `{b=true, n=3.5, s="v"}` {
		t.Errorf("String = %q", got)
	}

	c := a.Clone()
	c.SetNumber("n", 99)
	if a["n"].Num() != 3.5 {
		t.Error("Clone is not independent")
	}
	if Attributes(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}

	m := a.Merge(Attributes{"n": N(7), "extra": S("e")})
	if m["n"].Num() != 7 || m["extra"].Str() != "e" || m["s"].Str() != "v" {
		t.Errorf("Merge = %v", m)
	}
	if a["n"].Num() != 3.5 {
		t.Error("Merge mutated receiver")
	}
	var nilA Attributes
	m2 := nilA.Merge(Attributes{"x": N(1)})
	if m2["x"].Num() != 1 {
		t.Error("Merge on nil receiver failed")
	}
}

func TestWhole(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want uint64
		ok   bool
	}{
		{N(0), 0, true}, {N(7), 7, true}, {N(1 << 53), 1 << 53, true}, {N(math.Copysign(0, -1)), 0, true},
		{N(0.5), 0, false}, {N(-1), 0, false}, {N(1<<53 + 2), 0, false}, {N(1e300), 0, false},
		{N(math.NaN()), 0, false}, {N(math.Inf(1)), 0, false}, {N(math.Inf(-1)), 0, false},
		{S("7"), 0, false}, {B(true), 0, false}, {Value{}, 0, false},
	} {
		if got, ok := tc.v.Whole(); got != tc.want || ok != tc.ok {
			t.Errorf("%v.Whole() = %d, %v; want %d, %v", tc.v, got, ok, tc.want, tc.ok)
		}
	}
}
