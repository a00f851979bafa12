package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

// The differential oracle (ROADMAP item 2): one seeded chat workload —
// two publishers, 200 events each, three repair-enabled receivers, one
// coordinator, 10% loss plus jitter on every publisher→receiver link —
// is driven through core.Client and core.Coordinator on a virtual-time
// DESNet, where transport.Serve runs them inline, and on a wall-clock
// SimNet (wall_test.go), and through bare kernels in handler mode on a
// DESNet.  Every run must end with every receiver holding every
// sender's exact sequence: no duplicate, no reorder, nothing abandoned.

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

func attachPublishers(t *testing.T, net diffNet) []*Client {
	var pubs []*Client
	for _, id := range diffPublishers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		p := NewClient(conn, Config{})
		t.Cleanup(func() { p.Close() })
		pubs = append(pubs, p)
	}
	return pubs
}

// seatShells seats the workload's coordinator, publishers and
// repair-enabled receivers on net, and makes every publisher→receiver
// link lossy.
func seatShells(t *testing.T, net diffNet) (pubs, recvs []*Client) {
	cconn, err := net.Attach(diffCoord)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(cconn, session.Group{Objective: "differential"})
	t.Cleanup(func() { coord.Close() })
	pubs = attachPublishers(t, net)
	for i, id := range diffReceivers {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		r := NewClient(conn, Config{Repair: diffRepair(i)})
		t.Cleanup(func() { r.Close() })
		recvs = append(recvs, r)
	}
	setDiffLinks(net, diffLossy)
	return pubs, recvs
}

// shellResult is what the receivers delivered.
func shellResult(recvs []*Client) diffResult {
	res := diffResult{delivered: make(map[string]map[string][]string)}
	for _, r := range recvs {
		res.collect(r.ID(), r.Chat(), repairStatus(r))
	}
	return res
}

// runShells drives the workload through core.Client and
// core.Coordinator on a DESNet, publishing at scheduled virtual
// instants.  It also returns the network trace, one line per event.
func runShells(t *testing.T) (diffResult, []string) {
	net := newVNet(t, 77)
	integrity := transporttest.Watch(t, net)
	var log []string
	net.SetTrace(func(e transport.TraceEvent) {
		integrity.Observe(e)
		log = append(log, fmt.Sprintf("%d %s>%s %s %d %t", e.AtNS, e.From, e.To, e.Kind, e.Size, e.Unicast))
	})
	pubs, recvs := seatShells(t, net)
	for i := 0; i < diffEvents; i++ {
		i := i
		net.clk.ScheduleFunc(time.Duration(i)*diffPublishGap, func(time.Time) { diffPublish(t, net, pubs, i) })
	}
	net.clk.AdvanceTo(time.Unix(0, 0).Add(diffEvents*diffPublishGap + 5*time.Second))
	return shellResult(recvs), log
}

// runKernels drives the same workload through bare kernels attached in
// handler mode to a DESNet on a virtual clock, single-threaded.  It
// also returns the event log: one line per Deliver effect, in order.
func runKernels(t *testing.T) (diffResult, []string) {
	net := newVNet(t, 77)
	clk := net.clk
	transporttest.Watch(t, net)

	var coord *CoordinatorKernel
	coord = NewCoordinatorKernel(net.handler(diffCoord, func(p transport.Packet) { coord.HandlePacket(p) }),
		session.Group{Objective: "differential"})

	var log []string
	kernels := make([]*Kernel, len(diffReceivers))
	chats := make([]*apps.ChatArea, len(diffReceivers))
	for i, id := range diffReceivers {
		i, id := i, id
		chats[i] = apps.NewChatArea()
		kernels[i] = NewKernel(net.handler(id, func(p transport.Packet) { kernels[i].HandlePacket(p) }), Config{Repair: diffRepair(i)})
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
	pubs := attachPublishers(t, net)
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

// diffWant is every receiver holding every publisher's exact sequence.
func diffWant() map[string]map[string][]string {
	want := make(map[string]map[string][]string)
	for _, r := range diffReceivers {
		want[r] = make(map[string][]string)
		for _, p := range diffPublishers {
			for i := 0; i < diffEvents; i++ {
				want[r][p] = append(want[r][p], diffText(p, i))
			}
		}
	}
	return want
}

// checkDiff fails t unless got is the exact workload, nothing abandoned.
func checkDiff(t *testing.T, name string, got diffResult) {
	t.Helper()
	if got.abandoned != 0 {
		t.Errorf("%s: %d gaps abandoned, want 0", name, got.abandoned)
	}
	want := diffWant()
	for _, r := range diffReceivers {
		for _, p := range diffPublishers {
			if !reflect.DeepEqual(got.delivered[r][p], want[r][p]) {
				t.Errorf("%s: %s delivered %d lines from %s, not the exact sequence 0..%d: %v",
					name, r, len(got.delivered[r][p]), p, diffEvents-1, got.delivered[r][p])
			}
		}
	}
}

func TestDifferentialShellVsKernel(t *testing.T) {
	virtualShells, trace1 := runShells(t)
	kernels, log1 := runKernels(t)
	checkDiff(t, "shells on DESNet", virtualShells)
	checkDiff(t, "kernels on DESNet", kernels)
	if !reflect.DeepEqual(virtualShells.delivered, kernels.delivered) {
		t.Error("shell and kernel runs delivered different sequences")
	}
	if _, trace2 := runShells(t); len(trace1) == 0 || !reflect.DeepEqual(trace1, trace2) {
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
