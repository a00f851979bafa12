package basestation

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

const virtualLines = 40 // chat lines per wired sender

var (
	virtualWired    = []string{"wired-0", "wired-1"}
	virtualWireless = []string{"wireless-0", "wireless-1", "wireless-2", "handheld-0", "handheld-1", "handheld-2"}
	virtualLossy    = transport.Link{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.10}
)

// virtualRun is what one session leaves behind: every frame the two
// segments carried, in order, and what every member applied.
type virtualRun struct {
	trace, deliveries string
}

// runVirtualSession runs real nodes on two DESNets sharing one
// clock.Virtual: two wired clients with gap repair, the archiving
// coordinator, and a base station serving six
// wireless clients, two pairs of them sharing a registry shard, so the
// station's send order is the registry's member order.  transport.Serve drives every node inline on the
// clock's goroutine.  The links between the wired clients lose 10% of
// frames; the links into the coordinator and the station stay clean,
// as in the live deployment.  Each wired client says virtualLines
// chat lines, the last over healed links so trailing gaps show; wired-0
// shares an image and wireless-0 uplinks a chat line halfway through.
func runVirtualSession(t *testing.T) virtualRun {
	clk := clock.NewVirtual(time.Unix(0, 0))
	wiredNet := transport.NewDESNet(transport.DESNetConfig{Seed: 11, Clock: clk})
	radioNet := transport.NewDESNet(transport.DESNetConfig{Seed: 12, Clock: clk, DefaultLink: transport.Link{Down: true}})
	defer wiredNet.Close()
	defer radioNet.Close()
	var trace strings.Builder
	integrity := transporttest.Watch(t, wiredNet, radioNet)
	for _, seg := range []struct {
		name string
		net  *transport.DESNet
	}{{"wired", wiredNet}, {"radio", radioNet}} {
		name := seg.name
		seg.net.SetTrace(func(e transport.TraceEvent) {
			integrity.Observe(e)
			h := fnv.New64a()
			h.Write(e.Data)
			fmt.Fprintf(&trace, "%s %d %s>%s %s %d %t %016x\n", name, e.AtNS, e.From, e.To, e.Kind, e.Size, e.Unicast, h.Sum64())
		})
	}
	coord := core.NewCoordinator(attach(t, wiredNet, "coordinator"), session.Group{Objective: "virtual"})
	var wired []*core.Client
	for i, id := range virtualWired {
		wired = append(wired, core.NewClient(attach(t, wiredNet, id), core.Config{Repair: &core.RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond,
			MaxRetries:   10,
			Seed:         int64(i + 1),
		}}))
	}
	// Six members interfere: thresholds below the defaults keep every
	// one of them in service, at the image, sketch and text tiers.
	bs := New("bs", attach(t, wiredNet, "bs"), attach(t, radioNet, "bs"), radio.NewChannel(radio.Params{}),
		Config{Thresholds: radio.Thresholds{TextDB: -12, SketchDB: -8, ImageDB: -5}})
	var wireless []*core.Client
	for i, id := range virtualWireless {
		wireless = append(wireless, core.NewClient(seat(t, radioNet, id), core.Config{}))
		p := profile.New(id)
		p.Interests.SetString("media", "any")
		if _, err := bs.Join(p, 50+float64(i)*6, 1); err != nil {
			t.Fatal(err)
		}
	}
	members := append(append([]*core.Client(nil), wired...), wireless...)
	setLinks := func(l transport.Link) {
		wiredNet.SetLinkBoth(virtualWired[0], virtualWired[1], l)
	}
	setLinks(virtualLossy)

	const gap = 2 * time.Millisecond
	uplink := apps.EncodeSay("from the field")
	for i := 0; i < virtualLines; i++ {
		i := i
		clk.ScheduleFunc(time.Duration(i)*gap, func(time.Time) {
			if i == virtualLines-1 {
				setLinks(transport.Link{})
			}
			for _, c := range wired {
				if err := c.Say(fmt.Sprintf("%s-%d", c.ID(), i), ""); err != nil {
					t.Error(err)
				}
			}
			switch i {
			case virtualLines / 4:
				if err := wired[0].ShareImage("scan", testImageObject(t), ""); err != nil {
					t.Error(err)
				}
			case virtualLines / 2:
				if err := bs.UplinkEvent(virtualWireless[0], apps.AppChat, "", uplink); err != nil {
					t.Error(err)
				}
			}
		})
	}
	clk.AdvanceTo(time.Unix(0, 0).Add(virtualLines*gap + 5*time.Second))

	// Every member holds every line exactly once and in order: each wired
	// sender's whole sequence, and the uplinked line everywhere but at
	// the member it came from.
	var deliveries strings.Builder
	for _, c := range members {
		bySender := map[string][]string{}
		for _, l := range c.Chat().Lines() {
			bySender[l.Sender] = append(bySender[l.Sender], l.Text)
			fmt.Fprintf(&deliveries, "%s chat %s %q\n", c.ID(), l.Sender, l.Text)
		}
		want := map[string][]string{}
		for _, id := range virtualWired {
			for i := 0; i < virtualLines; i++ {
				want[id] = append(want[id], fmt.Sprintf("%s-%d", id, i))
			}
		}
		if c.ID() != virtualWireless[0] {
			want[virtualWireless[0]] = []string{"from the field"}
		}
		if !reflect.DeepEqual(bySender, want) {
			t.Errorf("%s holds %v, want every line once and in order", c.ID(), bySender)
		}
		st := c.Stats()
		fmt.Fprintf(&deliveries, "%s stats %+v images=%v inbox=%d\n", c.ID(), st, c.Viewer().Objects(), c.Inbox().Len())
	}
	// The image reaches the other wired client whole, through repair if
	// need be, and each wireless member at its own tier.
	if st, err := wired[1].Viewer().Stats("scan"); err != nil || st.PacketsAccepted != st.TotalPackets {
		t.Errorf("wired-1 holds scan as %+v, %v: want every packet", st, err)
	}
	for _, c := range wireless {
		if len(c.Viewer().Objects())+c.Inbox().Len() != 1 {
			t.Errorf("%s holds images %v and %d inbox items: want the one share", c.ID(), c.Viewer().Objects(), c.Inbox().Len())
		}
	}
	fmt.Fprintf(&deliveries, "bs %+v archived=%d\n", bs.Stats(), coord.ArchivedEvents())

	// Closed nodes leave nothing behind on the clock: a pending poll comes
	// due once more and is not rescheduled.
	for _, c := range members {
		c.Close()
	}
	coord.Close()
	bs.Close()
	if fired := clk.RunUntilIdle(1000); fired == 1000 {
		t.Error("the clock's heap does not drain once every node has closed")
	}
	return virtualRun{trace: trace.String(), deliveries: deliveries.String()}
}

// TestNodesOnVirtualTime: real clients, a coordinator and a base station
// run on virtual time deliver every line once and in order, and two
// runs are byte-identical on the wire and in what every member applied.
func TestNodesOnVirtualTime(t *testing.T) {
	first := runVirtualSession(t)
	second := runVirtualSession(t)
	if first.trace != second.trace {
		t.Error("two runs put different traces on the networks")
	}
	if first.deliveries != second.deliveries {
		t.Errorf("two runs delivered differently:\n%s\nthen:\n%s", first.deliveries, second.deliveries)
	}
	if !strings.Contains(first.trace, " drop ") {
		t.Error("no frame was lost: the run did not exercise repair")
	}
}
