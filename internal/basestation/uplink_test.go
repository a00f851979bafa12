package basestation

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// TestUplinkNumberedPerSender: what the station multicasts for a member
// is that member's stream, numbered contiguously from 1, so a
// repair-enabled wired receiver holds two members' alternating chat
// lines and a share once and in order without a single NACK on a
// lossless link.  Numbered from one station-wide counter, each member's
// stream had a hole wherever the other spoke: NACKs the coordinator
// could not serve, then abandoned gaps.  Then both members uplink at
// once, from a goroutine each: the numbering is shared state.
func TestUplinkNumberedPerSender(t *testing.T) {
	r := newRig(t, Config{})
	coord := core.NewCoordinator(attach(t, r.wiredNet, "coordinator"), session.Group{Objective: "uplink"})
	t.Cleanup(func() { coord.Close() })
	replica := core.NewClient(attach(t, r.wiredNet, "replica"), core.Config{Repair: &core.RepairOptions{
		Coordinator: "coordinator", StallTimeout: 20 * time.Millisecond, MaxRetries: 2,
	}})
	t.Cleanup(func() { replica.Close() })
	members := []string{"w1", "w2"}
	w1 := r.joinWireless(t, "w1", 30, 1)
	r.joinWireless(t, "w2", 30, 1)

	ctrs := metrics.Counters()
	requests0, abandoned0 := ctrs[metrics.CtrRepairRequests], ctrs[metrics.CtrRepairAbandoned]
	for i := 0; i < 6; i++ {
		from := members[i%2]
		if err := r.bs.UplinkEvent(from, apps.AppChat, "", apps.EncodeSay(fmt.Sprintf("%s line %d", from, i))); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// The share crosses the radio segment: it reaches the station,
			// and is numbered into w1's stream, when the clock runs.
			if err := w1.ShareImage("w1-photo", testImageObject(t), ""); err != nil {
				t.Fatal(err)
			}
			r.clk.Advance(0)
		}
	}
	var wg sync.WaitGroup
	for _, from := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 6; i < 26; i++ {
				if err := r.bs.UplinkEvent(from, apps.AppChat, "", apps.EncodeSay(fmt.Sprintf("%s line %d", from, i))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	r.settle() // long past the first stall a hole would have raised
	if n, shares := replica.Chat().Len(), len(replica.Viewer().Objects())+replica.Inbox().Len(); n != 46 || shares != 1 {
		t.Fatalf("replica holds %d lines and %d shares, want 46 and 1", n, shares)
	}

	var got []string
	perMember := map[string][]string{}
	for _, l := range replica.Chat().Lines() {
		got = append(got, l.Text)
		from := strings.Fields(l.Text)[0]
		perMember[from] = append(perMember[from], l.Text)
	}
	if want := []string{"w1 line 0", "w2 line 1", "w1 line 2", "w2 line 3", "w1 line 4", "w2 line 5"}; fmt.Sprint(got[:6]) != fmt.Sprint(want) {
		t.Errorf("replica chat starts %q, want %q", got[:6], want)
	}
	for _, from := range members {
		var want []string
		for i := 6; i < 26; i++ {
			want = append(want, fmt.Sprintf("%s line %d", from, i))
		}
		if lines := perMember[from][3:]; fmt.Sprint(lines) != fmt.Sprint(want) {
			t.Errorf("replica holds %s's concurrent lines as %q, want %q", from, lines, want)
		}
	}
	ctrs = metrics.Counters()
	if n := ctrs[metrics.CtrRepairRequests] - requests0; n != 0 {
		t.Errorf("%d repair requests on a lossless link, want 0", n)
	}
	if n := ctrs[metrics.CtrRepairAbandoned] - abandoned0; n != 0 {
		t.Errorf("%d gaps abandoned on a lossless link, want 0", n)
	}
}

// TestMemberLineCrossesAsSent: a line a member says over the radio
// reaches the session as the member sent it — its attributes and its
// publish timestamp, over a 5 ms radio link — and the other members
// only where its selector admits them.  While the station re-minted
// the line, the session's copy carried the app attribute alone and the
// station's timestamp, and the line was unicast to every member, a1
// too, whose kernel then filtered it.
func TestMemberLineCrossesAsSent(t *testing.T) {
	r := newRig(t, Config{})
	v1 := r.joinWithMedia(t, "v1", "video")
	v2 := r.joinWithMedia(t, "v2", "video")
	a1 := r.joinWithMedia(t, "a1", "audio")
	r.radioNet.SetLinkBoth("bs", "v1", transport.Link{Delay: 5 * time.Millisecond})
	var got []*message.Message
	un := message.NewUnwrapper()
	if _, err := r.wiredNet.AttachHandler("tap", func(p transport.Packet) {
		frame, err := un.Unwrap(p.From, p.Data)
		if err != nil || frame == nil {
			return
		}
		if m, err := message.Decode(frame); err == nil && m.Sender == "v1" && m.Kind == message.KindEvent {
			got = append(got, m)
		}
	}); err != nil {
		t.Fatal(err)
	}

	unicasts := r.bs.Stats().DownlinkUnicasts
	sent := r.clk.Now()
	if err := v1.Say("video team only", `media == "video"`); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(50 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("the session took %d lines from v1, want 1", len(got))
	}
	m := got[0]
	for _, name := range []string{message.AttrApp, message.AttrMedia, message.AttrSize} {
		if _, ok := m.Attr(name); !ok {
			t.Errorf("the session's copy has no %q attribute: %v", name, m)
		}
	}
	if m.Selector != `media == "video"` || m.Seq != 1 {
		t.Errorf("the session's copy has selector %q and seq %d, want v1's selector and seq 1", m.Selector, m.Seq)
	}
	if !m.Timestamp.Equal(sent) {
		t.Errorf("the session's copy is stamped %s after v1 said it, want v1's own timestamp", m.Timestamp.Sub(sent))
	}
	if n := r.bs.Stats().DownlinkUnicasts - unicasts; n != 1 {
		t.Errorf("the line was unicast %d times, want once (to v2)", n)
	}
	if v2.Chat().Len() != 1 {
		t.Errorf("v2 holds %d lines, want 1", v2.Chat().Len())
	}
	if st := a1.Stats(); st.EventsFiltered != 0 || st.EventsReceived != 0 {
		t.Errorf("a1, whose profile the selector rejects, was sent %d events (%d filtered)",
			st.EventsReceived+st.EventsFiltered, st.EventsFiltered)
	}
}

// TestUnparsableSelectorReachesNoMember: a member's line whose selector
// does not parse still goes to the session, where each receiver holds
// it to the selector itself, but no other member is sent it: the
// station enumerates no candidates for it, as MatchProfile would match
// no one.
func TestUnparsableSelectorReachesNoMember(t *testing.T) {
	c := newBareCell(t, 1, 4)
	if err := c.bs.UplinkEvent("m00", apps.AppChat, `media ==`, apps.EncodeSay("to whom?")); err != nil {
		t.Fatal(err)
	}
	c.settle()
	take(t, "the session's copy", c.wired[0])
	for _, conn := range c.members {
		if len(conn.Recv()) != 0 {
			t.Errorf("%s was sent a line whose selector does not parse", conn.ID())
		}
	}
	if n := c.bs.Stats().DownlinkUnicasts; n != 0 {
		t.Errorf("DownlinkUnicasts = %d, want 0", n)
	}
}
