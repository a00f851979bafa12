package selector

import (
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical Format output
	}{
		{`true`, `true`},
		{`false`, `false`},
		{`media == "video"`, `media == "video"`},
		{`media = "video"`, `media == "video"`},
		{`size <= 1048576`, `size <= 1048576`},
		{`size < 10.5`, `size < 10.5`},
		{`size >= -3`, `size >= -3`},
		{`color != true`, `color != true`},
		{`color <> true`, `color != true`},
		{`encoding in ["MPEG2", "JPEG"]`, `encoding in ["MPEG2", "JPEG"]`},
		{`rate in [1, 2, 4]`, `rate in [1, 2, 4]`},
		{`name like "img-*"`, `name like "img-*"`},
		{`exists(modality)`, `exists(modality)`},
		{`not exists(modality)`, `not exists(modality)`},
		{`! exists(modality)`, `not exists(modality)`},
		{`a == 1 and b == 2`, `a == 1 and b == 2`},
		{`a == 1 && b == 2`, `a == 1 and b == 2`},
		{`a == 1 or b == 2`, `a == 1 or b == 2`},
		{`a == 1 || b == 2`, `a == 1 or b == 2`},
		{`a == 1 and b == 2 or c == 3`, `a == 1 and b == 2 or c == 3`},
		{`a == 1 and (b == 2 or c == 3)`, `a == 1 and (b == 2 or c == 3)`},
		{`not (a == 1 and b == 2)`, `not (a == 1 and b == 2)`},
		{`video.encoding == "MPEG2"`, `video.encoding == "MPEG2"`},
		{`cpu-load > 30`, `cpu-load > 30`},
		{`x == 'single quoted'`, `x == "single quoted"`},
		{`x == "esc\"aped\n"`, `x == "esc\"aped\n"`},
		{`x == "\x01é\'"`, `x == "\x01é'"`}, // the escapes Format writes read back
		{`x == 1e3`, `x == 1000`},
		{`x == 2.5e-2`, `x == 0.025`},
		{`AND.or.not == 1`, `AND.or.not == 1`}, // dotted name, not keywords
	}
	for _, tc := range cases {
		e, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error: %v", tc.src, err)
			continue
		}
		if got := Format(e); got != tc.want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestParseCanonicalIsFixedPoint(t *testing.T) {
	srcs := []string{
		`a == 1 and (b == 2 or c == 3) and not exists(d)`,
		`media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576`,
		`not (a == 1 or b like "x*") or c >= 2.75`,
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		canon := Format(e1)
		e2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(canonical %q): %v", canon, err)
		}
		if again := Format(e2); again != canon {
			t.Errorf("canonical form not stable: %q -> %q", canon, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`and`,
		`a ==`,
		`a == "unterminated`,
		`a == 12e`,
		`a in []`,
		`a in [1,]`,
		`a in [1 2]`,
		`a like 42`,
		`exists()`,
		`exists(a`,
		`(a == 1`,
		`a == 1)`,
		`a == 1 b == 2`,
		`a & b`,
		`a | b`,
		`== 1`,
		`a == \x01`,
		`a !< 3`,
		`exists(42)`,
		`a == 1 and`,
		`not`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got none", src)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse(`a == 1 @`)
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("expected *SyntaxError, got %T", err)
	}
	if se.Pos != 7 {
		t.Errorf("error position = %d, want 7", se.Pos)
	}
	if !strings.Contains(err.Error(), "offset 7") {
		t.Errorf("error message %q does not mention offset", err.Error())
	}
}

func TestCompileAndSelectorAPI(t *testing.T) {
	s, err := Compile(`media == "image"`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source() != `media == "image"` {
		t.Errorf("Source = %q", s.Source())
	}
	if !s.Matches(Attributes{"media": S("image")}) {
		t.Error("expected match")
	}
	if s.Matches(Attributes{"media": S("text")}) {
		t.Error("unexpected match")
	}
	if _, err := Compile(`bad ==`); err == nil {
		t.Error("Compile of invalid source should fail")
	}
}

// mustParse is Parse for sources the tests spell themselves.
func mustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}
