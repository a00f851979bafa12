package selector

import "testing"

// FuzzSelectorParse holds the parser to its formatter: a selector is
// parsed from untrusted frame bytes, and whatever Parse accepts must
// format to canonical source that parses again, to an expression with
// the same canonical form that evaluates the same on every attribute
// set below.  It must never panic.
func FuzzSelectorParse(f *testing.F) {
	for _, src := range []string{
		`true`,
		`media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576`,
		`not (a == 1 or b like "x*") or c >= 2.75`,
		`a == 1 and (b == 2 or c == 3) and not exists(d)`,
		`cpu-load > 30 && video.encoding != 'MPEG2' || ! exists(modality)`,
		`x == "esc\"aped\n\t"`,
		`rate in [1, 2.5e-3, -4, true, "s"]`,
		`size >= 1e300`,
	} {
		f.Add(src)
	}
	sets := []Attributes{
		{},
		{"a": N(1), "b": N(2), "c": N(3), "d": B(true), "x": S("esc\"aped\n\t"), "size": N(1048576)},
		{"a": S("1"), "b": S("xyz"), "c": N(2.75), "media": S("video"), "encoding": S("JPEG"),
			"rate": N(1), "cpu-load": N(31), "video.encoding": S("MPEG2"), "modality": S("text")},
		{"a": B(false), "b": S("x"), "c": S("c"), "name": S("img-1"), "color": B(true), "rate": S("s"), "size": N(1e300)},
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		canon := Format(e)
		e2, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) formats to %q, which does not parse: %v", src, canon, err)
		}
		if again := Format(e2); again != canon {
			t.Fatalf("Parse(%q): canonical form %q formats again as %q", src, canon, again)
		}
		for _, attrs := range sets {
			if got, want := e2.Eval(attrs), e.Eval(attrs); got != want {
				t.Fatalf("Parse(%q) evaluates to %v on %v, its canonical form %q to %v", src, want, attrs, canon, got)
			}
		}
	})
}
