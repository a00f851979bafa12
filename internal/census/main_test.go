package main

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The fixture (testdata/fixture, a module of its own) has one program,
// one library package the reachability census is tested on (see lib.go
// for what is live and why), and packages that each break an
// architecture rule; what they declare is dead, and only lib's dead is
// asserted.
func TestCensusOverFixture(t *testing.T) {
	names := func(ds []*decl) []string {
		var out []string
		for _, d := range ds {
			if strings.HasPrefix(d.name, "lib.") {
				out = append(out, d.name)
			}
		}
		return out
	}

	// A dead exported function is reported; so is a method whose name is
	// called through an interface only from dead code, and what only the
	// dead reach.  The method the program calls through Shape is not, but
	// a method of that name on a reached type that is no Shape is.
	got, broken, err := census("testdata/fixture", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Square.Name", "lib.Describe", "lib.Spare", "lib.spareValue", "lib.Circle.Area"}; !reflect.DeepEqual(names(got), want) {
		t.Fatalf("unreached = %v, want %v", names(got), want)
	}
	if d := got[1]; d.file != "internal/lib/lib.go" || d.line != 30 || d.lines != 1 {
		t.Errorf("lib.Describe reported at %s:%d (%d lines)", d.file, d.line, d.lines)
	}

	// Each rule is broken once or more, at the line named.  Four of these
	// a text match gets wrong: the aliased time import calling Sleep, the
	// method value time.Now and the var whose struct type holds a mutex
	// are caught, and the kernel's comment naming go, select, chan and <-
	// is not flagged.  Message.Attrs is flagged wherever it is named
	// outside its package: set, stored into, read, or a literal's key
	// (once per use, so twice on one line).  A node may not
	// drive itself: the go statement planted in a core file breaks
	// passive-nodes, as the kernel's does.  The station may neither
	// inspect a stream nor decode one, even under a renamed import, and
	// it hands no member to a worker pool: Pool.Each, called anywhere in
	// the station or taken as a value, is flagged.
	// An init may set its own package's state, but the one that calls
	// into obs is flagged, at its line.
	wantBroken := []string{
		"cmd/app/wait.go:7 scheduling: uses time.Sleep",
		"internal/apps/imageviewer.go:17 ownership: copies with slices.Clone",
		"internal/basestation/relay.go:12 carried-sketch: uses internal/wavelet.Inspect",
		"internal/basestation/relay.go:15 carried-sketch: uses internal/wavelet.Decode",
		"internal/basestation/relay.go:20 one-fanout: uses dispatch.Pool.Each",
		"internal/basestation/relay.go:25 one-fanout: uses dispatch.Pool.Each",
		"internal/basestation/relay.go:28 one-fanout: uses dispatch.Pool.Each",
		"internal/clock/clock.go:10 leaf: imports internal/metrics",
		"internal/core/kernel.go:11 kernel-purity: channel type",
		"internal/core/kernel.go:12 kernel-purity: go statement",
		"internal/core/kernel.go:13 kernel-purity: send statement",
		"internal/core/kernel.go:13 kernel-purity: channel-typed out",
		"internal/core/kernel.go:14 kernel-purity: uses clock.Wall",
		"internal/core/coordkernel.go:4 ownership: copies with append onto a nil []byte",
		"internal/core/client.go:7 passive-nodes: go statement",
		"internal/core/client.go:8 passive-nodes: select statement",
		"internal/core/client.go:9 passive-nodes: uses clock.Clock.NewTicker",
		"internal/core/kernel.go:12 passive-nodes: go statement",
		"internal/core/attrs.go:9 sorted-attrs: uses message.Message.Attrs",
		"internal/core/attrs.go:10 sorted-attrs: uses message.Message.Attrs",
		"internal/core/attrs.go:11 sorted-attrs: uses message.Message.Attrs",
		"internal/core/attrs.go:11 sorted-attrs: uses message.Message.Attrs",
		"internal/core/attrs.go:12 sorted-attrs: uses message.Message.Attrs",
		"internal/core/attrs.go:15 sorted-attrs: uses message.Message.Attrs",
		"internal/obs/stamp.go:7 clock-seam: uses time.Now",
		"internal/obs/loop.go:11 passive-telemetry: uses clock.Clock.NewTicker",
		"internal/obs/state.go:12 global-state: var hits holds sync.Mutex",
		"internal/registry/registry.go:5 boundary: depends on internal/media (import internal/apps)",
		"internal/replay/replay.go:3 fidelity: does not depend on internal/core",
		"internal/replay/replay.go:5 fidelity: declares encodeData",
		"internal/slo/debug.go:11 explicit-wiring: init uses obs.Hit",
		"internal/transport/engine.go:15 ownership: copies with bytes.Clone",
	}
	if !reflect.DeepEqual(broken, wantBroken) {
		t.Errorf("rule violations:\n  %s\nwant:\n  %s", strings.Join(broken, "\n  "), strings.Join(wantBroken, "\n  "))
	}

	// An allowlisted declaration is a root: it and what it reaches drop out.
	got, _, err = census("testdata/fixture", []string{"lib.Spare"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Square.Name", "lib.Describe", "lib.Circle.Area"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("with lib.Spare allowlisted: unreached = %v, want %v", names(got), want)
	}

	// A listed global holder is not a violation.
	_, broken, err = census("testdata/fixture", nil, []string{"obs.hits"})
	if err != nil || slices.ContainsFunc(broken, func(v string) bool { return strings.Contains(v, "global-state") }) {
		t.Errorf("with obs.hits listed: err = %v, violations %v", err, broken)
	}

	// Stale entries — reachable anyway, naming nothing, or a global that
	// holds no state — are errors.
	_, _, err = census("testdata/fixture", []string{"lib.Total", "lib.Gone"}, []string{"metrics.Reads"})
	if err == nil || !strings.Contains(err.Error(), "lib.Total (reachable without the allowlist)") ||
		!strings.Contains(err.Error(), "lib.Gone (no such declaration)") ||
		!strings.Contains(err.Error(), "metrics.Reads (holds no package state)") {
		t.Errorf("stale entries: err = %v", err)
	}
}

func TestParseAllow(t *testing.T) {
	got, err := parseList(strings.NewReader("# comment\n\nlib.Spare — kept for the test\n"), "allow.txt", maxAllowed)
	if err != nil || !reflect.DeepEqual(got, []string{"lib.Spare"}) {
		t.Errorf("parseList = %v, %v", got, err)
	}
	if _, err := parseList(strings.NewReader("lib.Spare\n"), "allow.txt", maxAllowed); err == nil {
		t.Error("an entry without a reason was accepted")
	}
	long := strings.Repeat("lib.X — r\n", maxAllowed+1)
	if _, err := parseList(strings.NewReader(long), "allow.txt", maxAllowed); err == nil {
		t.Error("an over-long allowlist was accepted")
	}
	globals := strings.Repeat("lib.G — r\n", maxGlobals)
	if _, err := parseList(strings.NewReader(globals), "globals.txt", maxGlobals); err != nil {
		t.Errorf("globals.txt at its cap was refused: %v", err)
	}
	if _, err := parseList(strings.NewReader(globals+"lib.H — r\n"), "globals.txt", maxGlobals); err == nil {
		t.Error("a globals.txt one entry past its cap was accepted")
	}
}
