package basestation

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// traceOf reads the datagram d as a member would and returns the trace
// identity of the message it carries; the trace extension's hops are
// merged into the flight recorder on the way.
func traceOf(t *testing.T, d []byte) uint64 {
	t.Helper()
	frame, err := message.NewUnwrapper().Unwrap("bs", d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := message.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	return obs.MsgID(m.Sender, m.Seq)
}

// pathRuns numbers TestWhatEachPathRecords' runs in the process.
var pathRuns atomic.Int32

// TestWhatEachPathRecords pins what the station records for each
// member on each of its four ways out — a member's line, a wired line,
// a share's announce and its data frame: a member's line is transmitted
// to every other member, unmatched and untiered; the other three match
// every member their selector admits — the tier is assessed after the
// match — and transmit to those their tier admits; a rendition carries
// its transform hop on the trace it is sent under; and a member parked
// below the text tier is sent none of the three, each a drop that names
// it.
func TestWhatEachPathRecords(t *testing.T) {
	obs.SetEnabled(true)
	obs.SetTraceEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false); obs.SetTraceEnabled(false); obs.ResetFlight() })
	obs.ResetFlight()
	clk, wiredNet, radioNet := newNets(t)
	// A publisher of its own per run: the trace ring keeps the
	// drops of earlier runs in the process, under the same
	// sequence numbers.
	in := &wiredInjector{t: t, clk: clk, conn: attach(t, wiredNet, fmt.Sprintf("pub%d", pathRuns.Add(1)))}
	bs := New("bs", attach(t, wiredNet, "bs"), attach(t, radioNet, "bs"), radio.NewChannel(radio.Params{}),
		Config{Thresholds: tierThresholds})
	t.Cleanup(func() { bs.Close() })
	seats := []struct {
		id       string
		distance float64
		tier     radio.Tier
	}{
		{"image", tierDistances[radio.TierImage][0], radio.TierImage},
		{"sketch", tierDistances[radio.TierSketch][0], radio.TierSketch},
		{"text", tierDistances[radio.TierText][0], radio.TierText},
		{"parked", 1000, radio.TierNone},
	}
	conns := map[string]transport.Conn{}
	for _, s := range seats {
		conns[s.id] = seat(t, radioNet, s.id)
		if _, err := bs.Join(profile.New(s.id), s.distance, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range seats {
		if a, err := bs.Assess(s.id); err != nil || a.Tier != s.tier {
			t.Fatalf("placement: %s assessed %s at %.1f dB (%v), want %s", s.id, a.Tier, a.SIRdB, err, s.tier)
		}
	}
	settle := func() { clk.Advance(time.Second) }
	// owed takes the one datagram each of ids is owed and checks
	// that every other member was sent nothing.
	owed := func(what string, ids ...string) map[string][]byte {
		t.Helper()
		got := map[string][]byte{}
		for id, conn := range conns {
			select {
			case pkt := <-conn.Recv():
				got[id] = pkt.Data
			default:
			}
		}
		for _, id := range ids {
			if got[id] == nil {
				t.Errorf("%s: nothing reached %s", what, id)
			}
		}
		if len(got) != len(ids) {
			t.Errorf("%s: %d members were sent something, want %v", what, len(got), ids)
		}
		return got
	}
	// hops checks what the station recorded for id and that it
	// counted sent DownlinkUnicasts since the last check.
	var unicasts uint64
	hops := func(what string, id uint64, match, transmit, sent int) {
		t.Helper()
		n := bs.Stats().DownlinkUnicasts
		if n-unicasts != uint64(sent) {
			t.Errorf("%s: %d downlink unicasts counted, want %d", what, n-unicasts, sent)
		}
		unicasts = n
		h := obs.Hops(id)
		if n := countHops(h, "bs", obs.StageMatch); n != match {
			t.Errorf("%s: %d match hops at the station, want %d", what, n, match)
		}
		if n := countHops(h, "bs", obs.StageTransmit); n != transmit {
			t.Errorf("%s: %d transmit hops at the station, want %d", what, n, transmit)
		}
	}
	parked := func(what string, id uint64) {
		t.Helper()
		n := 0
		for _, e := range obs.Events(0) {
			if e.MsgID == id && e.Kind == obs.EventDrop && e.Stage == obs.StageDeliver && strings.Contains(e.Detail, "parked") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d deliver drops name the parked member, want 1", what, n)
		}
	}

	// A member's line: one transmit hop per other member, the
	// parked one too, and no match.
	if err := bs.UplinkEvent("image", apps.AppChat, "", apps.EncodeSay("from the field")); err != nil {
		t.Fatal(err)
	}
	settle()
	got := owed("member's line", "sketch", "text", "parked")
	hops("member's line", traceOf(t, got["sketch"]), 0, 3, 3)

	// A wired line: every member matched, the line transmitted
	// at each tier from text up.
	in.send(&message.Message{Kind: message.KindEvent,
		Attrs: selector.Attributes{message.AttrApp: selector.S(apps.AppChat)}, Body: apps.EncodeSay("to the cell")})
	settle()
	got = owed("wired line", "image", "sketch", "text")
	id := traceOf(t, got["image"])
	hops("wired line", id, 4, 3, 3)
	parked("wired line", id)

	// An announce: every member matched, the announce transmitted
	// as sent at the image tier; the lower tiers' renditions are
	// transformed, each on the trace it is sent under.
	meta, packets, err := apps.ShareImage("photo", testImageObject(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("photo", meta)
	settle()
	got = owed("announce", "image", "sketch", "text")
	id = traceOf(t, got["image"])
	hops("announce", id, 4, 1, 3)
	parked("announce", id)
	for _, tier := range []string{"sketch", "text"} {
		if n := countHops(obs.Hops(traceOf(t, got[tier])), "bs", obs.StageTransform); n != 1 {
			t.Errorf("the %s rendition's trace holds %d transform hops at the station, want 1", tier, n)
		}
	}

	// A data frame: every member matched, the frame sent to the
	// image tier alone.
	in.data("photo", 0, packets[0])
	settle()
	got = owed("data frame", "image")
	id = traceOf(t, got["image"])
	hops("data frame", id, 4, 1, 1)
	parked("data frame", id)
}
