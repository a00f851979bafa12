package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func newCoordinatedNet(t *testing.T) (*transport.SimNet, *Coordinator) {
	t.Helper()
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 51})
	t.Cleanup(net.Close)
	conn, err := net.Attach("coordinator")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(conn, session.Group{Objective: "test-session"})
	t.Cleanup(func() { coord.Close() })
	return net, coord
}

func TestCoordinatorArchivesAndReplays(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	for i := 0; i < 3; i++ {
		if err := a.Say(fmt.Sprintf("history line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archive", func() bool { return coord.ArchivedEvents() == 3 })
	if got := coord.lastSeq(); got != 3 {
		t.Errorf("session seq = %d", got)
	}

	// A late joiner requests the history and absorbs it.
	cb, _ := net.Attach("late-bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if b.Chat().Len() != 0 {
		t.Fatal("late joiner should start empty")
	}
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replayed history", func() bool { return b.Chat().Len() == 3 })
	lines := b.Chat().Lines()
	if lines[0].Sender != "alice" || lines[0].Text != "history line 0" {
		t.Errorf("replayed line: %+v", lines[0])
	}

	// Partial catch-up: only events after seq 2.
	cc, _ := net.Attach("later-carol")
	c := NewClient(cc, Config{})
	defer c.Close()
	if err := c.RequestHistory("coordinator", 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partial history", func() bool { return c.Chat().Len() == 1 })
	if c.Chat().Lines()[0].Text != "history line 2" {
		t.Errorf("partial replay: %+v", c.Chat().Lines())
	}
}

// TestLateJoinerMatchesLiveUnderLoss: on a virtual-time DESNet whose
// links between members lose 10% of frames, three publishers chat while
// a live member repairs its gaps from the coordinator.  Once the
// session is quiet, a late joiner's replayed history holds, per
// sender, exactly what the live member delivered: every line once and
// in order.  The links into and out of the coordinator reorder but do
// not lose, as in the live deployment.
func TestLateJoinerMatchesLiveUnderLoss(t *testing.T) {
	const lines = 30
	publishers := []string{"pub-0", "pub-1", "pub-2"}
	members := append([]string{"live"}, publishers...)
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 38, Clock: clk})
	t.Cleanup(net.Close)
	drops := 0
	net.SetTrace(func(e transport.TraceEvent) {
		if e.Kind == transport.TraceDrop {
			drops++
		}
	})
	attach := func(id string) transport.Conn {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	coord := NewCoordinatorClock(attach("coordinator"), session.Group{Objective: "late-joiner"}, clk)
	t.Cleanup(func() { coord.Close() })
	client := func(id string, seed int64) *Client {
		c := NewClient(attach(id), Config{Clock: clk, Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond,
			MaxRetries:   10,
			Seed:         seed,
		}})
		t.Cleanup(func() { c.Close() })
		return c
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
	if err := late.RequestHistory("coordinator", 0); err != nil {
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
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	if err := a.Say("for medics", `team == "medical"`); err != nil {
		t.Fatal(err)
	}
	if err := a.Say("for everyone", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "archive", func() bool { return coord.ArchivedEvents() == 2 })

	// The late joiner is on the logistics team: the medical line is
	// filtered out of its replayed history by its own profile.
	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	b.Profile().SetInterest("team", selector.S("logistics"))
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "filtered replay", func() bool { return b.Stats().EventsFiltered >= 1 })
	time.Sleep(30 * time.Millisecond)
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "for everyone" {
		t.Errorf("filtered history: %+v", b.Chat().Lines())
	}
}

func TestCoordinatorArchivesImageShares(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	im := wavelet.Circles(32, 32)
	obj, err := media.EncodeImage(im, "archived diagram")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("arch-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	// 1 announce + 16 data packets.
	waitFor(t, "image archive", func() bool { return coord.ArchivedEvents() == 17 })

	// Late joiner recovers the full image from the archive.
	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replayed image", func() bool {
		st, err := b.Viewer().Stats("arch-1")
		return err == nil && st.PacketsAccepted == 16
	})
	res, err := b.Viewer().Render("arch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("archived image should replay losslessly")
	}
}

func TestCoordinatorArchiveCap(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	for i := 0; i < 10; i++ {
		if err := a.Say(fmt.Sprintf("m%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archive fill", func() bool { return coord.ArchivedEvents() == 10 })
	// A cap lowered on a full archive takes hold at the next frame,
	// which trims everything past it at once.
	coord.setArchiveCap(4)
	if err := a.Say("m10", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "trimmed archive", func() bool { return coord.lastSeq() == 11 })
	if got := coord.ArchivedEvents(); got != 4 {
		t.Errorf("frames after cap = %d, want 4", got)
	}

	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capped replay", func() bool { return b.Chat().Len() == 4 })
	if b.Chat().Lines()[0].Text != "m7" {
		t.Errorf("oldest retained line: %+v", b.Chat().Lines()[0])
	}
}

func TestCoordinatorGroupFilterSkipsArchival(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 52})
	defer net.Close()
	conn, _ := net.Attach("coordinator")
	coord := NewCoordinator(conn, session.Group{
		Objective: "clinical-only",
		Filter:    selector.MustCompile(`client == "alice"`),
	})
	defer coord.Close()

	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("mallory")
	a := NewClient(ca, Config{})
	m := NewClient(cb, Config{})
	defer a.Close()
	defer m.Close()

	a.Say("kept", "")
	m.Say("not archived", "")
	waitFor(t, "selective archive", func() bool { return coord.ArchivedEvents() >= 1 })
	time.Sleep(30 * time.Millisecond)
	if got := coord.ArchivedEvents(); got != 1 {
		t.Errorf("archived %d events, want 1 (group filter)", got)
	}
}

// TestCoordinatorArchiveCapHoldsAsEventsArrive is the regression test
// for the frame leak past the cap: once a cap is set, frames archived
// afterwards must be dropped together with the session events the cap
// trims, and a late joiner still gets the newest cap-many.
func TestCoordinatorArchiveCapHoldsAsEventsArrive(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	coord.setArchiveCap(4)
	for i := 0; i < 10; i++ {
		if err := a.Say(fmt.Sprintf("m%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all ten sequenced", func() bool { return coord.lastSeq() == 10 })
	if got := coord.ArchivedEvents(); got != 4 {
		t.Errorf("frames held after ten events under cap 4 = %d, want 4", got)
	}

	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capped replay", func() bool { return b.Chat().Len() == 4 })
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
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	cc, _ := net.Attach("carol")
	a, c := NewClient(ca, Config{}), NewClient(cc, Config{})
	defer a.Close()
	defer c.Close()

	const each = 100 // 200 archived events
	for i := 1; i <= each; i++ {
		if err := a.Say(fmt.Sprintf("a%d", i), ""); err != nil {
			t.Fatal(err)
		}
		if err := c.Say(fmt.Sprintf("c%d", i), ""); err != nil {
			t.Fatal(err)
		}
		// Keep the archive order known: alice's i-th, then carol's.
		waitFor(t, "archived in turn", func() bool { return coord.ArchivedEvents() == 2*i })
	}

	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	// NACK form: alice's frames after her seq 30, nothing of carol's.
	if err := b.k.requestHistory("coordinator", "alice", 30); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sender-scoped replay", func() bool { return b.Chat().Len() == each-30 })
	for i, l := range b.Chat().Lines() {
		if want := fmt.Sprintf("a%d", 31+i); l.Sender != "alice" || l.Text != want {
			t.Fatalf("replayed line %d is %s %q, want alice %q", i, l.Sender, l.Text, want)
		}
	}

	cd, _ := net.Attach("dave")
	d := NewClient(cd, Config{})
	defer d.Close()
	// Catch-up form: everything after session seq 70.
	if err := d.RequestHistory("coordinator", 70); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up replay", func() bool { return d.Chat().Len() == 2*each-70 })
	for i, l := range d.Chat().Lines() {
		n := 36 + i/2 // session seq 71 is alice's 36th
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
