package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"adaptiveqos/internal/trace"
)

// summary runs the command and returns its summary's numbers by name:
// "feedback.reports", "wireless-0.images", …
func summary(t *testing.T, args ...string) map[string]int {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("collab %v: %v\n%s", args, err, out.String())
	}
	got := make(map[string]int)
	for _, line := range regexp.MustCompile(`(?m)^(\S+) +(\S+=\d+.*)$`).FindAllStringSubmatch(out.String(), -1) {
		for _, kv := range regexp.MustCompile(`([\w-]+)=(\d+)`).FindAllStringSubmatch(line[2], -1) {
			got[line[1]+"."+kv[1]], _ = strconv.Atoi(kv[2])
		}
	}
	if _, ok := got["feedback.reports"]; !ok {
		t.Fatalf("no feedback line in the summary:\n%s", out.String())
	}
	return got
}

// TestReceptionReportsCloseTheLoop drives the closing half of the
// adaptation loop in the command itself: receivers report after every
// image share, so on lossy wired links senders truncate later shares,
// and a truncated share — ended by its RTP marker at the base station —
// still reaches the wireless member as an image.  Lossless, the same
// session truncates nothing.
func TestReceptionReportsCloseTheLoop(t *testing.T) {
	// Repair off: every wired send then comes from the workload loop, so
	// the seeded loss pattern repeats.  10% loss: a 20%-loss prefix of
	// ~12 packets plus its announce completes at the station about one
	// time in twenty, too rarely to assert on.
	const events, seed = 80, 2
	args := []string{"-wired", "2", "-wireless", "1", "-events", fmt.Sprint(events),
		"-seed", fmt.Sprint(seed), "-slo=false", "-repair-timeout", "0"}

	shares := 0
	gen := trace.NewGenerator(seed, []string{"wired-0", "wired-1"}, trace.DefaultMix())
	for i := 0; i < events; i++ {
		if gen.Next().Kind == trace.EventImageShare {
			shares++
		}
	}

	lossy := summary(t, append(args, "-loss", "0.1")...)
	reports, cut, reached := lossy["feedback.reports"], lossy["feedback.truncated-shares"], lossy["wireless-0.images"]
	if reports == 0 || cut == 0 {
		t.Fatalf("%d reports sent, %d of %d shares truncated: the loop did not close", reports, cut, shares)
	}
	// More images reached the wireless member than were sent whole, so
	// at least one of them was a truncated share.
	if whole := shares - cut; reached <= whole {
		t.Errorf("%d images at wireless-0 with %d of %d shares sent whole: no truncated share shown to arrive", reached, whole, shares)
	}

	clean := summary(t, append(args, "-loss", "0")...)
	if clean["feedback.reports"] == 0 || clean["feedback.truncated-shares"] != 0 {
		t.Errorf("lossless: %d reports, %d truncated shares, want reports and no truncation",
			clean["feedback.reports"], clean["feedback.truncated-shares"])
	}
	if clean["wireless-0.images"] != shares {
		t.Errorf("lossless: %d of %d shares reached wireless-0", clean["wireless-0.images"], shares)
	}
}
