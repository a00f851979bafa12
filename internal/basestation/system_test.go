package basestation

import (
	"fmt"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/trace"
)

// TestFullSystemSession runs the paper's operational overview end to
// end in one process: wired clients with SNMP-driven adaptation, an
// archiving coordinator, a base station with wireless clients, a
// workload generator driving chat/strokes/image shares, and a late
// joiner catching up from the archive.  The assertions are global
// consistency properties rather than any single feature.
func TestFullSystemSession(t *testing.T) {
	clk, wiredNet, radioNet := newNets(t)

	// Coordinator archives the session.
	coord := core.NewCoordinator(attach(t, wiredNet, "coordinator"), session.Group{Objective: "system-test"})
	defer coord.Close()

	// Wired clients; the first is monitored via SNMP.
	host := hostagent.NewHost("w0-host")
	host.SetSchedule(hostagent.ParamCPULoad, hostagent.Ramp{From: 20, To: 90, Steps: 30})
	host.Set(hostagent.ParamPageFaults, 15)
	monitor := &hostagent.Monitor{
		Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, ""),
	}
	var wired []*core.Client
	for i := 0; i < 3; i++ {
		cfg := core.Config{}
		if i == 0 {
			cfg.Monitor = monitor
		}
		c := core.NewClient(attach(t, wiredNet, fmt.Sprintf("wired-%d", i)), cfg)
		defer c.Close()
		wired = append(wired, c)
	}

	// Base station + wireless clients.
	bs := New("bs", attach(t, wiredNet, "bs"), attach(t, radioNet, "bs"), radio.NewChannel(radio.Params{}), Config{})
	defer bs.Close()
	var wireless []*core.Client
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("wireless-%d", i)
		c := core.NewClient(seat(t, radioNet, id), core.Config{})
		defer c.Close()
		if _, err := bs.Join(profile.New(id), 45+float64(i)*8, 1); err != nil {
			t.Fatal(err)
		}
		wireless = append(wireless, c)
	}

	// Drive the workload.
	gen := trace.NewGenerator(5, []string{"wired-0", "wired-1", "wired-2"}, trace.DefaultMix())
	senderFor := map[string]*core.Client{
		"wired-0": wired[0], "wired-1": wired[1], "wired-2": wired[2],
	}
	var chats, strokes, images int
	for i := 0; i < 30; i++ {
		host.Step()
		if _, err := wired[0].AdaptOnce(); err != nil {
			t.Fatal(err)
		}
		ev := gen.Next()
		sender := senderFor[ev.Sender]
		switch ev.Kind {
		case trace.EventChat:
			if err := sender.Say(ev.Text, ""); err != nil {
				t.Fatal(err)
			}
			chats++
		case trace.EventStroke:
			s := apps.Stroke{ID: uint32(i + 1), Color: 1, Width: 1,
				Points: []apps.Point{{X: int16(i), Y: 0}, {X: int16(i), Y: 9}}}
			if err := sender.Draw(s, ""); err != nil {
				t.Fatal(err)
			}
			strokes++
		case trace.EventImageShare:
			images++
			obj, err := media.EncodeImage(ev.Image, ev.Description)
			if err != nil {
				t.Fatal(err)
			}
			if err := sender.ShareImage(fmt.Sprintf("sys-img-%d", images), obj, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.Advance(time.Second)

	// --- Global consistency -------------------------------------------

	// Every wired client converged on the same chat history length and
	// whiteboard state (each sees every event, including its own).
	for _, c := range wired {
		if got := c.Chat().Len(); got != chats {
			t.Errorf("%s: chat %d, want %d", c.ID(), got, chats)
		}
		if got := c.Whiteboard().Len(); got != strokes {
			t.Errorf("%s: strokes %d, want %d", c.ID(), got, strokes)
		}
		if st := c.Stats(); st.DecodeErrors != 0 {
			t.Errorf("%s: decode errors %d", c.ID(), st.DecodeErrors)
		}
	}

	// The monitored client's budget tightened as its host degraded.
	if d := wired[0].LastDecision(); d.EffectiveBudget(16) >= 16 {
		t.Errorf("wired-0 budget %d never constrained", d.EffectiveBudget(16))
	}

	// Non-sender wired clients received all image packets.
	for _, c := range wired[1:] {
		for i := 1; i <= images; i++ {
			object := fmt.Sprintf("sys-img-%d", i)
			st, err := c.Viewer().Stats(object)
			if err != nil {
				t.Errorf("%s: %s missing", c.ID(), object)
				continue
			}
			if st.PacketsReceived != st.TotalPackets {
				t.Errorf("%s: %s received %d/%d", c.ID(), object, st.PacketsReceived, st.TotalPackets)
			}
		}
	}

	// Wireless clients got every chat line (relayed through the BS)
	// and a tiered copy of every image.
	for _, c := range wireless {
		if got := c.Chat().Len(); got != chats {
			t.Errorf("%s: chat %d, want %d", c.ID(), got, chats)
		}
		delivered := len(c.Viewer().Objects()) + c.Inbox().Len()
		if delivered < images {
			t.Errorf("%s: %d image deliveries, want >= %d", c.ID(), delivered, images)
		}
	}

	// The coordinator archived every event the multicast carried:
	// chats + strokes + per-image (1 announce + 16 packets).
	wantArchived := chats + strokes + images*17
	if got := coord.ArchivedEvents(); got != wantArchived {
		t.Errorf("archived %d, want %d", got, wantArchived)
	}

	// A late joiner reconstructs the whole session from the archive.
	late := core.NewClient(attach(t, wiredNet, "late"), core.Config{})
	defer late.Close()
	if err := late.RequestHistory("coordinator"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if late.Chat().Len() != chats || late.Whiteboard().Len() != strokes {
		t.Errorf("late joiner caught up %d lines and %d strokes, want %d and %d",
			late.Chat().Len(), late.Whiteboard().Len(), chats, strokes)
	}
	for i := 1; i <= images; i++ {
		object := fmt.Sprintf("sys-img-%d", i)
		if st, err := late.Viewer().Stats(object); err != nil || st.PacketsAccepted != st.TotalPackets {
			t.Errorf("late joiner holds %s as %+v (%v), want every packet", object, st, err)
		}
	}
}
