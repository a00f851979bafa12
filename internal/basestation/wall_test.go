package basestation

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

// The station on the wall clock.  Everything else in the package runs
// on two DESNets sharing a virtual clock (rig, bareCell), where every
// node runs inline on the test's goroutine.  Here transport.Serve gives
// each segment of the station a goroutine of its own, so `go test
// -race` sees them race the callers'; and the allocation tests count on
// a zero-delay SimNet link, which hands a datagram to its receiver's
// inbox inside the send and allocates nothing doing it, where a DESNet
// schedules every send on its clock's heap.

// wallCell is a base station on two wall-clock SimNets, both watched
// for frame integrity; the radio one is a star, as newNets's is.
type wallCell struct {
	wiredNet, radioNet *transport.SimNet
	bs                 *BaseStation
}

func newWallCell(t *testing.T, cfg Config) *wallCell {
	t.Helper()
	c := &wallCell{
		wiredNet: transport.NewSimNet(transport.SimNetConfig{Seed: 1}),
		radioNet: transport.NewSimNet(transport.SimNetConfig{Seed: 2, DefaultLink: transport.Link{Down: true}}),
	}
	t.Cleanup(func() { c.wiredNet.Close(); c.radioNet.Close() })
	transporttest.Watch(t, c.wiredNet, c.radioNet)
	c.bs = New("bs", attach(t, c.wiredNet, "bs"), attach(t, c.radioNet, "bs"), radio.NewChannel(radio.Params{}), cfg)
	t.Cleanup(func() { c.bs.Close() })
	return c
}

// join seats a bare radio endpoint and joins it at distance d.
func (c *wallCell) join(t *testing.T, id string, d float64) transport.Conn {
	t.Helper()
	conn := seat(t, c.radioNet, id)
	if _, err := c.bs.Join(profile.New(id), d, 1); err != nil {
		t.Fatal(err)
	}
	return conn
}

// eventually polls cond until it holds, failing t after 3 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStationOnWallClock: a wired client says lines, the station
// uplinks the first member's lines through UplinkEvent and the second
// member says its own over the radio, each from a goroutine of its own,
// while the station's Serve goroutines relay them and every client's
// takes what reaches it.  So the two ways into the radio segment's
// relay, UplinkEvent from its caller and handleWireless from Serve,
// take turns over its state.  On the way the wired client shares an
// image, and so does the first member, over the radio, so the station
// relays the two shares at once, each on its own segment's state.
// Every line reaches every client once (a client that says its own
// holds them too), and each share every client but its sender.
func TestStationOnWallClock(t *testing.T) {
	c := newWallCell(t, Config{})
	seat := func(conn transport.Conn) *core.Client {
		cl := core.NewClient(conn, core.Config{})
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	wired := seat(attach(t, c.wiredNet, "wired-1"))
	members := []*core.Client{seat(c.join(t, "w1", 30)), seat(c.join(t, "w2", 40))}
	obj := testImageObject(t)

	const lines = 30
	var wg sync.WaitGroup
	for _, cl := range append([]*core.Client{wired}, members...) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				var err error
				if text := fmt.Sprintf("%s %d", cl.ID(), i); cl != members[0] {
					err = cl.Say(text, "")
				} else {
					err = c.bs.UplinkEvent(cl.ID(), apps.AppChat, "", apps.EncodeSay(text))
				}
				if err != nil {
					t.Error(err)
				}
				if i == lines/2 && cl != members[1] {
					if err := cl.ShareImage(cl.ID()+"-scan", obj, ""); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	// A share is held whole, or as one rendition in the inbox.
	holds := func(cl *core.Client, shares ...string) bool {
		n := cl.Inbox().Len()
		for _, s := range shares {
			if st, err := cl.Viewer().Stats(s); err == nil && st.PacketsAccepted == st.TotalPackets {
				n++
			}
		}
		return n == len(shares)
	}
	eventually(t, "every line and the member's share at the wired client", func() bool {
		return wired.Chat().Len() == 3*lines && holds(wired, "w1-scan")
	})
	eventually(t, "the others' lines and the wired share at w1", func() bool {
		return members[0].Chat().Len() == 2*lines && holds(members[0], "wired-1-scan")
	})
	eventually(t, "every line and both shares at w2", func() bool {
		return members[1].Chat().Len() == 3*lines && holds(members[1], "wired-1-scan", "w1-scan")
	})
}
