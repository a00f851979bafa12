package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

// The differential oracle (ROADMAP item 2): one seeded chat workload —
// two publishers, 200 events each, three repair-enabled receivers, one
// coordinator, 10% loss plus jitter on every publisher→receiver link —
// is driven through core.Client and core.Coordinator on a wall-clock
// SimNet and on a virtual-time DESNet, where transport.Serve runs them
// inline, and through bare kernels in handler mode on a DESNet.  Every
// run must end with every receiver holding every sender's exact
// sequence: no duplicate, no reorder, nothing abandoned.

const (
	diffEvents     = 200
	diffCoord      = "coordinator"
	diffPublishGap = 2 * time.Millisecond
)

var (
	diffPublishers = []string{"pub-0", "pub-1"}
	diffReceivers  = []string{"recv-0", "recv-1", "recv-2"}
	diffLossy      = transport.Link{Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.10}
)

func diffText(pub string, i int) string { return fmt.Sprintf("%s-%d", pub, i) }

func diffRepair(i int) *RepairOptions {
	return &RepairOptions{
		Coordinator:  diffCoord,
		StallTimeout: 32 * time.Millisecond, // polled every 8ms
		MaxRetries:   10,
		Seed:         int64(900 + i),
	}
}

// diffNet is what the two substrates share.
type diffNet interface {
	Attach(id string) (transport.Conn, error)
	SetLink(from, to string, l transport.Link)
	SetTrace(func(transport.TraceEvent))
	Close()
}

// setDiffLinks configures every publisher→receiver link; the links
// into and out of the coordinator stay clean (the archive must hear
// everything to answer NACKs).
func setDiffLinks(net diffNet, l transport.Link) {
	for _, p := range diffPublishers {
		for _, r := range diffReceivers {
			net.SetLink(p, r, l)
		}
	}
}

// diffPublish is one step of the workload: every publisher says its
// i-th line.  The last line goes out over healed links — tail loss is
// invisible until a later event parks behind the gap, so the final
// event is what lets repair see (and close) trailing gaps.
func diffPublish(t *testing.T, net diffNet, pubs []*Client, i int) {
	if i == diffEvents-1 {
		setDiffLinks(net, transport.Link{})
	}
	for _, p := range pubs {
		if err := p.Say(diffText(p.ID(), i), ""); err != nil {
			t.Error(err)
		}
	}
}

// diffResult is what a run reports: receiver → sender → chat texts in
// delivery order, and the gaps given up on.
type diffResult struct {
	delivered map[string]map[string][]string
	abandoned uint64
}

func (r *diffResult) collect(recv string, chat *apps.ChatArea, st map[string]RepairStatus) {
	bySender := make(map[string][]string)
	for _, l := range chat.Lines() {
		bySender[l.Sender] = append(bySender[l.Sender], l.Text)
	}
	r.delivered[recv] = bySender
	for _, s := range st {
		r.abandoned += s.Abandoned
	}
}

func attachPublishers(t *testing.T, net diffNet, clk clock.Clock) []*Client {
	var pubs []*Client
	for _, id := range diffPublishers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		p := NewClient(conn, Config{Clock: clk})
		t.Cleanup(func() { p.Close() })
		pubs = append(pubs, p)
	}
	return pubs
}

// runShells drives the workload through core.Client and
// core.Coordinator: in wall time on a SimNet when clk is nil, else on a
// DESNet on clk, publishing at scheduled virtual instants.  On the
// DESNet it also returns the network trace, one line per event.
func runShells(t *testing.T, clk *clock.Virtual) (diffResult, []string) {
	var net diffNet = transport.NewSimNet(transport.SimNetConfig{Seed: 77})
	var nodeClk clock.Clock // nil: the wall clock
	if clk != nil {
		net, nodeClk = transport.NewDESNet(transport.DESNetConfig{Seed: 77, Clock: clk}), clk
	}
	t.Cleanup(net.Close)
	integrity := transporttest.Watch(t, net)
	var log []string
	if clk != nil {
		net.SetTrace(func(e transport.TraceEvent) {
			integrity.Observe(e)
			log = append(log, fmt.Sprintf("%d %s>%s %s %d %t", e.AtNS, e.From, e.To, e.Kind, e.Size, e.Unicast))
		})
	}
	cconn, err := net.Attach(diffCoord)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinatorClock(cconn, session.Group{Objective: "differential"}, nodeClk)
	t.Cleanup(func() { coord.Close() })
	pubs := attachPublishers(t, net, nodeClk)
	var recvs []*Client
	for i, id := range diffReceivers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		r := NewClient(conn, Config{Clock: nodeClk, Repair: diffRepair(i)})
		t.Cleanup(func() { r.Close() })
		recvs = append(recvs, r)
	}
	setDiffLinks(net, diffLossy)

	if clk != nil {
		for i := 0; i < diffEvents; i++ {
			i := i
			clk.ScheduleFunc(time.Duration(i)*diffPublishGap, func(time.Time) { diffPublish(t, net, pubs, i) })
		}
		clk.AdvanceTo(time.Unix(0, 0).Add(diffEvents*diffPublishGap + 5*time.Second))
	} else {
		for i := 0; i < diffEvents; i++ {
			diffPublish(t, net, pubs, i)
			time.Sleep(diffPublishGap)
		}
		// Quiescence: every receiver has applied every line.
		for _, r := range recvs {
			r := r
			waitFor(t, r.ID()+" applying every line", func() bool {
				return r.Chat().Len() >= len(diffPublishers)*diffEvents
			})
		}
	}
	res := diffResult{delivered: make(map[string]map[string][]string)}
	for _, r := range recvs {
		res.collect(r.ID(), r.Chat(), repairStatus(r))
	}
	return res, log
}

// runKernels drives the same workload through bare kernels attached in
// handler mode to a DESNet on a virtual clock, single-threaded.  It
// also returns the event log: one line per Deliver effect, in order.
func runKernels(t *testing.T) (diffResult, []string) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 77, Clock: clk})
	defer net.Close()
	transporttest.Watch(t, net)

	var coord *CoordinatorKernel
	cconn, err := net.AttachHandler(diffCoord, func(p transport.Packet) { coord.HandlePacket(p) })
	if err != nil {
		t.Fatal(err)
	}
	coord = NewCoordinatorKernel(cconn, session.Group{Objective: "differential"}, clk)

	var log []string
	kernels := make([]*Kernel, len(diffReceivers))
	chats := make([]*apps.ChatArea, len(diffReceivers))
	for i, id := range diffReceivers {
		i, id := i, id
		conn, err := net.AttachHandler(id, func(p transport.Packet) { kernels[i].HandlePacket(p) })
		if err != nil {
			t.Fatal(err)
		}
		chats[i] = apps.NewChatArea()
		kernels[i] = NewKernel(conn, Config{Clock: clk, Repair: diffRepair(i)})
		kernels[i].Deliver = func(m *message.Message) {
			log = append(log, fmt.Sprintf("%d %s %s %d", clk.Now().UnixNano(), id, m.Sender, m.Seq))
			if err := chats[i].Apply(m.Sender, m.Body); err != nil {
				t.Error(err)
			}
		}
	}
	// The publish side is not kernel code: real clients, which
	// transport.Serve runs inline, say the lines from the driving
	// goroutine at scheduled virtual instants.
	pubs := attachPublishers(t, net, clk)
	setDiffLinks(net, diffLossy)

	for i := 0; i < diffEvents; i++ {
		i := i
		clk.ScheduleFunc(time.Duration(i)*diffPublishGap, func(time.Time) { diffPublish(t, net, pubs, i) })
	}
	end := time.Unix(0, 0).Add(diffEvents*diffPublishGap + 5*time.Second)
	var tick func(now time.Time)
	tick = func(now time.Time) {
		for _, k := range kernels {
			k.Poll(now)
		}
		if now.Before(end) {
			clk.ScheduleFunc(kernels[0].PollInterval(), tick)
		}
	}
	clk.ScheduleFunc(kernels[0].PollInterval(), tick)
	clk.AdvanceTo(end)

	res := diffResult{delivered: make(map[string]map[string][]string)}
	for i, id := range diffReceivers {
		res.collect(id, chats[i], kernels[i].RepairStatus())
	}
	return res, log
}

func TestDifferentialShellVsKernel(t *testing.T) {
	want := make(map[string]map[string][]string)
	for _, r := range diffReceivers {
		want[r] = make(map[string][]string)
		for _, p := range diffPublishers {
			for i := 0; i < diffEvents; i++ {
				want[r][p] = append(want[r][p], diffText(p, i))
			}
		}
	}
	check := func(name string, got diffResult) {
		t.Helper()
		if got.abandoned != 0 {
			t.Errorf("%s: %d gaps abandoned, want 0", name, got.abandoned)
		}
		for _, r := range diffReceivers {
			for _, p := range diffPublishers {
				if !reflect.DeepEqual(got.delivered[r][p], want[r][p]) {
					t.Errorf("%s: %s delivered %d lines from %s, not the exact sequence 0..%d: %v",
						name, r, len(got.delivered[r][p]), p, diffEvents-1, got.delivered[r][p])
				}
			}
		}
	}

	shells, _ := runShells(t, nil)
	virtualShells, trace1 := runShells(t, clock.NewVirtual(time.Unix(0, 0)))
	kernels, log1 := runKernels(t)
	check("shells on SimNet", shells)
	check("shells on DESNet", virtualShells)
	check("kernels on DESNet", kernels)
	if !reflect.DeepEqual(shells.delivered, kernels.delivered) || !reflect.DeepEqual(virtualShells.delivered, kernels.delivered) {
		t.Error("shell and kernel runs delivered different sequences")
	}
	if _, trace2 := runShells(t, clock.NewVirtual(time.Unix(0, 0))); len(trace1) == 0 || !reflect.DeepEqual(trace1, trace2) {
		t.Error("shell run on DESNet is not event-for-event reproducible")
	}

	_, log2 := runKernels(t)
	if len(log1) != len(diffReceivers)*len(diffPublishers)*diffEvents {
		t.Errorf("kernel run logged %d deliveries, want %d", len(log1), len(diffReceivers)*len(diffPublishers)*diffEvents)
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Error("kernel run is not event-for-event reproducible")
	}
}
