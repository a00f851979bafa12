package main

import (
	"reflect"
	"strings"
	"testing"
)

// The fixture (testdata/fixture, a module of its own) has one program
// and one library package; see lib.go for what is live and why.
func TestCensusOverFixture(t *testing.T) {
	names := func(ds []*decl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name)
		}
		return out
	}

	// A dead exported function is reported; so is a method whose name is
	// called through an interface only from dead code, and what only the
	// dead reach.  The method the program calls through Shape is not.
	got, err := census("testdata/fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Square.Name", "lib.Describe", "lib.Spare", "lib.spareValue"}; !reflect.DeepEqual(names(got), want) {
		t.Fatalf("unreached = %v, want %v", names(got), want)
	}
	if d := got[1]; d.file != "internal/lib/lib.go" || d.line != 30 || d.lines != 1 {
		t.Errorf("lib.Describe reported at %s:%d (%d lines)", d.file, d.line, d.lines)
	}

	// An allowlisted declaration is a root: it and what it reaches drop out.
	got, err = census("testdata/fixture", []string{"lib.Spare"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Square.Name", "lib.Describe"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("with lib.Spare allowlisted: unreached = %v, want %v", names(got), want)
	}

	// Stale entries — reachable anyway, or naming nothing — are errors.
	_, err = census("testdata/fixture", []string{"lib.Total", "lib.Gone"})
	if err == nil || !strings.Contains(err.Error(), "lib.Total (reachable without the allowlist)") ||
		!strings.Contains(err.Error(), "lib.Gone (no such declaration)") {
		t.Errorf("stale entries: err = %v", err)
	}
}

func TestParseAllow(t *testing.T) {
	got, err := parseAllow(strings.NewReader("# comment\n\nlib.Spare — kept for the test\n"))
	if err != nil || !reflect.DeepEqual(got, []string{"lib.Spare"}) {
		t.Errorf("parseAllow = %v, %v", got, err)
	}
	if _, err := parseAllow(strings.NewReader("lib.Spare\n")); err == nil {
		t.Error("an entry without a reason was accepted")
	}
	if _, err := parseAllow(strings.NewReader(strings.Repeat("lib.X — r\n", maxAllowed+1))); err == nil {
		t.Error("an over-long allowlist was accepted")
	}
}
