package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func newCoordinatedNet(t *testing.T) (*vnet, *Coordinator) {
	t.Helper()
	n := newVNet(t, 51)
	return n, n.coordinator(session.Group{Objective: "test-session"})
}

func TestCoordinatorArchivesAndReplays(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a := n.client("alice", Config{})

	for i := 0; i < 3; i++ {
		if err := a.Say(fmt.Sprintf("history line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	n.settle()
	if got := coord.ArchivedEvents(); got != 3 {
		t.Errorf("archived %d events, want 3", got)
	}
	if got := coord.lastSeq(); got != 3 {
		t.Errorf("session seq = %d", got)
	}

	// A late joiner requests the history and absorbs it.
	b := n.client("late-bob", Config{})
	if b.Chat().Len() != 0 {
		t.Fatal("late joiner should start empty")
	}
	if err := b.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	lines := b.Chat().Lines()
	if len(lines) != 3 || lines[0].Sender != "alice" || lines[0].Text != "history line 0" {
		t.Fatalf("replayed history: %+v", lines)
	}
}

// TestLateJoinerMatchesLiveUnderLoss: on a virtual-time DESNet whose
// links between members lose 10% of frames, three publishers chat while
// a live member repairs its gaps from the coordinator.  Once the
// session is quiet, a late joiner's replayed history holds, per
// sender, exactly what the live member delivered: every line once and
// in order.  The links into and out of the coordinator reorder but do
// not lose, as in the live deployment; the coordinator archives frames
// as it hears them, so the joiner's own kernel restores each sender's
// order.
func TestLateJoinerMatchesLiveUnderLoss(t *testing.T) {
	const lines = 30
	publishers := []string{"pub-0", "pub-1", "pub-2"}
	members := append([]string{"live"}, publishers...)
	net := newVNet(t, 38)
	clk := net.clk
	drops := 0
	net.SetTrace(func(e transport.TraceEvent) {
		if e.Kind == transport.TraceDrop {
			drops++
		}
	})
	net.coordinator(session.Group{Objective: "late-joiner"})
	client := func(id string, seed int64) *Client {
		return net.client(id, Config{Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond,
			MaxRetries:   10,
			Seed:         seed,
		}})
	}
	var live *Client
	var pubs []*Client
	for i, id := range members {
		c := client(id, int64(i+1))
		if id == "live" {
			live = c
		} else {
			pubs = append(pubs, c)
		}
	}
	lossy := transport.Link{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.10}
	setLinks := func(l transport.Link) {
		for i, a := range members {
			for _, b := range members[i+1:] {
				net.SetLinkBoth(a, b, l)
			}
		}
	}
	setLinks(lossy)
	for _, id := range members {
		net.SetLinkBoth(id, "coordinator", transport.Link{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})
	}

	// The last round goes out over healed links, so a trailing loss
	// shows as a gap rather than as a line nobody knows is missing.
	const gap = 2 * time.Millisecond
	for i := 0; i < lines; i++ {
		i := i
		clk.ScheduleFunc(time.Duration(i)*gap, func(time.Time) {
			if i == lines-1 {
				setLinks(transport.Link{})
			}
			for _, p := range pubs {
				if err := p.Say(fmt.Sprintf("%s-%d", p.ID(), i), ""); err != nil {
					t.Error(err)
				}
			}
		})
	}
	clk.AdvanceTo(time.Unix(0, 0).Add(lines*gap + 5*time.Second))
	if drops == 0 {
		t.Fatal("no frame was lost: the run did not exercise repair")
	}

	late := client("late", int64(len(members)+1))
	if err := late.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	clk.AdvanceTo(clk.Now().Add(5 * time.Second))

	bySender := func(c *Client) map[string][]string {
		out := map[string][]string{}
		for _, l := range c.Chat().Lines() {
			out[l.Sender] = append(out[l.Sender], l.Text)
		}
		return out
	}
	want := map[string][]string{}
	for _, id := range publishers {
		for i := 0; i < lines; i++ {
			want[id] = append(want[id], fmt.Sprintf("%s-%d", id, i))
		}
	}
	if got := bySender(live); !reflect.DeepEqual(got, want) {
		t.Errorf("live member delivered %v, want every line once and in order", got)
	}
	if got := bySender(late); !reflect.DeepEqual(got, bySender(live)) {
		t.Errorf("late joiner replayed %v, want what the live member delivered", got)
	}
}

func TestCoordinatorReplayRespectsSemanticFilter(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a := n.client("alice", Config{})

	if err := a.Say("for medics", `team == "medical"`); err != nil {
		t.Fatal(err)
	}
	if err := a.Say("for everyone", ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if got := coord.ArchivedEvents(); got != 2 {
		t.Errorf("archived %d events, want 2", got)
	}

	// The late joiner is on the logistics team: the medical line is
	// filtered out of its replayed history by its own profile.
	b := n.client("bob", Config{})
	b.Profile().SetInterest("team", selector.S("logistics"))
	if err := b.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if got := b.Stats().EventsFiltered; got != 1 {
		t.Errorf("bob filtered %d replayed events, want 1", got)
	}
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "for everyone" {
		t.Errorf("filtered history: %+v", b.Chat().Lines())
	}
}

func TestCoordinatorArchivesImageShares(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a := n.client("alice", Config{})

	im := wavelet.Circles(32, 32)
	obj, err := media.EncodeImage(im, "archived diagram")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("arch-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	// 1 announce + 16 data packets.
	n.settle()
	if got := coord.ArchivedEvents(); got != 17 {
		t.Errorf("archived %d frames, want 17", got)
	}

	// Late joiner recovers the full image from the archive.
	b := n.client("bob", Config{})
	if err := b.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if st, err := b.Viewer().Stats("arch-1"); err != nil || st.PacketsAccepted != 16 {
		t.Fatalf("replayed image: %+v (%v), want 16 packets accepted", st, err)
	}
	res, err := b.Viewer().Render("arch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("archived image should replay losslessly")
	}
}

func TestCoordinatorArchiveCap(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a := n.client("alice", Config{})

	for i := 0; i < 10; i++ {
		if err := a.Say(fmt.Sprintf("m%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	n.settle()
	if got := coord.ArchivedEvents(); got != 10 {
		t.Fatalf("archived %d events, want 10", got)
	}
	// A cap lowered on a full archive takes hold at the next frame,
	// which trims everything past it at once.
	coord.setArchiveCap(4)
	if err := a.Say("m10", ""); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if got := coord.lastSeq(); got != 11 {
		t.Errorf("session seq = %d, want 11", got)
	}
	if got := coord.ArchivedEvents(); got != 4 {
		t.Errorf("frames after cap = %d, want 4", got)
	}

	b := n.client("bob", Config{})
	if err := b.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if b.Chat().Len() != 4 || b.Chat().Lines()[0].Text != "m7" {
		t.Errorf("capped replay: %+v, want m7..m10", b.Chat().Lines())
	}
}

func TestCoordinatorGroupFilterSkipsArchival(t *testing.T) {
	n := newVNet(t, 52)
	coord := n.coordinator(session.Group{
		Objective: "clinical-only",
		Filter:    selector.MustCompile(`client == "alice"`),
	})
	a := n.client("alice", Config{})
	m := n.client("mallory", Config{})

	a.Say("kept", "")
	m.Say("not archived", "")
	n.settle()
	if got := coord.ArchivedEvents(); got != 1 {
		t.Errorf("archived %d events, want 1 (group filter)", got)
	}
}

// TestCoordinatorArchiveCapHoldsAsEventsArrive is the regression test
// for the frame leak past the cap: once a cap is set, frames archived
// afterwards must be dropped together with the session events the cap
// trims, and a late joiner still gets the newest cap-many.
func TestCoordinatorArchiveCapHoldsAsEventsArrive(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a := n.client("alice", Config{})

	coord.setArchiveCap(4)
	for i := 0; i < 10; i++ {
		if err := a.Say(fmt.Sprintf("m%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	n.settle()
	if got := coord.lastSeq(); got != 10 {
		t.Errorf("session seq = %d, want 10", got)
	}
	if got := coord.ArchivedEvents(); got != 4 {
		t.Errorf("frames held after ten events under cap 4 = %d, want 4", got)
	}

	b := n.client("bob", Config{})
	if err := b.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if b.Chat().Len() != 4 {
		t.Errorf("capped replay holds %d lines, want 4", b.Chat().Len())
	}
	for i, l := range b.Chat().Lines() {
		if want := fmt.Sprintf("m%d", 6+i); l.Text != want {
			t.Errorf("replayed line %d = %q, want %q", i, l.Text, want)
		}
	}
}

// TestCoordinatorReplayWalksLongArchive: a catch-up and a sender-scoped
// NACK over a long, interleaved archive replay exactly the frames asked
// for, in archive order.
func TestCoordinatorReplayWalksLongArchive(t *testing.T) {
	n, coord := newCoordinatedNet(t)
	a, c := n.client("alice", Config{}), n.client("carol", Config{})

	const each = 100 // 200 archived events
	for i := 1; i <= each; i++ {
		if err := a.Say(fmt.Sprintf("a%d", i), ""); err != nil {
			t.Fatal(err)
		}
		if err := c.Say(fmt.Sprintf("c%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-delay deliveries fire in send order: alice's i-th, then
	// carol's.
	n.settle()
	if got := coord.ArchivedEvents(); got != 2*each {
		t.Fatalf("archived %d events, want %d", got, 2*each)
	}

	b := n.client("bob", Config{})
	// NACK: alice's frames from her seq 31 on, nothing of carol's.
	if err := b.k.sendHistoryRequest("coordinator", selector.Attributes{
		attrCtrl:      selector.S(ctrlHistoryReq),
		attrForSender: selector.S("alice"),
	}, appendHoles(nil, nil, 31)); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if b.Chat().Len() != each-30 {
		t.Errorf("sender-scoped replay holds %d lines, want %d", b.Chat().Len(), each-30)
	}
	for i, l := range b.Chat().Lines() {
		if want := fmt.Sprintf("a%d", 31+i); l.Sender != "alice" || l.Text != want {
			t.Fatalf("replayed line %d is %s %q, want alice %q", i, l.Sender, l.Text, want)
		}
	}

	d := n.client("dave", Config{})
	// Catch-up: the whole archive, in session order.
	if err := d.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	n.settle()
	if d.Chat().Len() != 2*each {
		t.Errorf("catch-up replay holds %d lines, want %d", d.Chat().Len(), 2*each)
	}
	for i, l := range d.Chat().Lines() {
		n := 1 + i/2
		want := fmt.Sprintf("a%d", n)
		if i%2 == 1 {
			want = fmt.Sprintf("c%d", n)
		}
		if l.Text != want {
			t.Fatalf("replayed line %d is %q, want %q", i, l.Text, want)
		}
	}
}

// setArchiveCap lowers the running coordinator's archive bound.
func (c *Coordinator) setArchiveCap(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.k.archiveCap = n
}

// lastSeq is the session seq of the newest archived frame.
func (c *Coordinator) lastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k.first + uint64(len(c.k.log)) - 1
}
