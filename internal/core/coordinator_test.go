package core

import (
	"fmt"
	"testing"
	"time"

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
