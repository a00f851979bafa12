package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
	"adaptiveqos/internal/wavelet"
)

// The tests on the wall clock.  Everything else in the package runs on
// a virtual-time DESNet (vnet), where each node runs inline on the
// test's goroutine.  Here transport.Serve gives each node a goroutine of
// its own, so `go test -race` sees it race the caller's; and the flight
// recorder's hop timeline is ordered by obs's wall-clock stamps.

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

// TestClientPairOnWallClock: two clients on a SimNet say lines to each
// other from goroutines of their own while each one's Serve goroutine
// takes the other's, and one shares an image on the way.
func TestClientPairOnWallClock(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	t.Cleanup(net.Close)
	transporttest.Watch(t, net)
	var pair []*Client
	for _, id := range []string{"alice", "bob"} {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn, Config{})
		t.Cleanup(func() { c.Close() })
		pair = append(pair, c)
	}
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 3), "scan")
	if err != nil {
		t.Fatal(err)
	}
	const lines = 50
	var wg sync.WaitGroup
	for _, c := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				if err := c.Say(fmt.Sprintf("%s %d", c.ID(), i), ""); err != nil {
					t.Error(err)
				}
				if i == lines/2 && c.ID() == "alice" {
					if err := c.ShareImage("scan", obj, ""); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range pair {
		eventually(t, c.ID()+" holding both streams", func() bool { return c.Chat().Len() == 2*lines })
	}
	eventually(t, "the share at bob", func() bool {
		st, err := pair[1].Viewer().Stats("scan")
		return err == nil && st.PacketsAccepted == 16
	})
}

// TestDifferentialShellsOnSimNet is the differential workload
// (differential_test.go) with the clients and the coordinator on a
// wall-clock SimNet: each runs on its own Serve goroutine, the lossy
// links' deliveries on the network's dispatcher goroutine, and the
// receivers still deliver the exact sequences the bare kernels do.
func TestDifferentialShellsOnSimNet(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 77})
	t.Cleanup(net.Close)
	transporttest.Watch(t, net)
	pubs, recvs := seatShells(t, net)
	for i := 0; i < diffEvents; i++ {
		diffPublish(t, net, pubs, i)
		time.Sleep(diffPublishGap)
	}
	for _, r := range recvs {
		eventually(t, r.ID()+" applying every line", func() bool {
			return r.Chat().Len() >= len(diffPublishers)*diffEvents
		})
	}
	shells := shellResult(recvs)
	checkDiff(t, "shells on SimNet", shells)
	if kernels, _ := runKernels(t); !reflect.DeepEqual(shells.delivered, kernels.delivered) {
		t.Error("shell and kernel runs delivered different sequences")
	}
}

// TestAdaptOnceWhileServeTicks: a caller adapts a client by hand, as the
// benchmark's image workload does, while the client's own Serve
// goroutine adapts and reports on its tick; both decide from the same
// host, so they agree, and -race sees the two goroutines share the
// decision, the profile, the viewer and the reception statistics.
func TestAdaptOnceWhileServeTicks(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 3})
	t.Cleanup(net.Close)
	transporttest.Watch(t, net)
	host, mon := monitoredHost("wall-host")
	host.Set(hostagent.ParamCPULoad, 65)
	host.Set(hostagent.ParamPageFaults, 10)
	var pair []*Client
	for i, id := range []string{"alice", "bob"} {
		conn, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{}
		if i == 1 {
			cfg.Monitor = mon
		}
		c := NewClient(conn, cfg)
		t.Cleanup(func() { c.Close() })
		pair = append(pair, c)
	}
	alice, bob := pair[0], pair[1]
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 9), "scan")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.ShareImage("scan", obj, ""); err != nil {
		t.Fatal(err)
	}
	eventually(t, "bob taking the share", func() bool { return bob.Stats().DataPackets == 16 })
	want, err := bob.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	// Only bob's tick sends reports: once one has gone, the tick ran
	// while this goroutine was adapting.
	eventually(t, "bob's tick", func() bool {
		d, err := bob.AdaptOnce()
		if err != nil || d.EffectiveBudget(16) != want.EffectiveBudget(16) {
			t.Fatalf("hand adaptation gave %d (%v), want %d", d.EffectiveBudget(16), err, want.EffectiveBudget(16))
		}
		return bob.Stats().ReportsSent > 0
	})
	if got := bob.LastDecision().EffectiveBudget(16); got != want.EffectiveBudget(16) {
		t.Errorf("budget after the tick = %d, want %d", got, want.EffectiveBudget(16))
	}
	if bob.Stats().SampleErrors != 0 {
		t.Errorf("%d failed samples", bob.Stats().SampleErrors)
	}
}

// TestLockStressMutualExclusion: many clients hammer one object; at
// most one holds the lock at any time, every requester eventually gets
// it, and the critical-section counter shows no lost updates.
func TestLockStressMutualExclusion(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 71})
	defer net.Close()
	cc, _ := net.Attach("coordinator")
	coord := NewCoordinator(cc, session.Group{Objective: "stress"})
	defer coord.Close()

	const nClients = 6
	const perClient = 5

	clients := make([]*Client, nClients)
	for i := range clients {
		conn, err := net.Attach(fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewClient(conn, Config{})
		defer clients[i].Close()
	}

	var mu sync.Mutex
	inCritical := 0
	maxConcurrent := 0
	total := 0

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				if err := c.RequestLock("coordinator", "hot"); err != nil {
					t.Errorf("%s: request: %v", c.ID(), err)
					return
				}
				deadline := time.Now().Add(5 * time.Second)
				for c.LockState("hot") != LockGranted {
					if time.Now().After(deadline) {
						t.Errorf("%s: starved waiting for lock", c.ID())
						return
					}
					time.Sleep(time.Millisecond)
				}
				mu.Lock()
				inCritical++
				if inCritical > maxConcurrent {
					maxConcurrent = inCritical
				}
				total++
				mu.Unlock()

				time.Sleep(time.Millisecond) // hold briefly

				mu.Lock()
				inCritical--
				mu.Unlock()
				if err := c.ReleaseLock("coordinator", "hot"); err != nil {
					t.Errorf("%s: release: %v", c.ID(), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if maxConcurrent != 1 {
		t.Errorf("mutual exclusion violated: %d concurrent holders", maxConcurrent)
	}
	if total != nClients*perClient {
		t.Errorf("critical sections = %d, want %d", total, nClients*perClient)
	}
}

// TestEndToEndOverUDP runs the framework over real UDP sockets on
// loopback: chat, semantic filtering and a full progressive image
// share — the deployment configuration rather than the simulator.
func TestEndToEndOverUDP(t *testing.T) {
	tr := transport.NewUDPTransport()
	ca, err := tr.Listen("alice", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := tr.Listen("bob", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := tr.Listen("carol", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	a := NewClient(ca, Config{})
	b := NewClient(cb, Config{})
	c := NewClient(cc, Config{})
	defer a.Close()
	defer b.Close()
	defer c.Close()

	b.Profile().SetInterest("team", selector.S("field"))
	c.Profile().SetInterest("team", selector.S("hq"))

	// Semantic filtering across real sockets.
	if err := a.Say("field only", `team == "field"`); err != nil {
		t.Fatal(err)
	}
	if err := a.Say("everyone", ""); err != nil {
		t.Fatal(err)
	}
	eventually(t, "bob's lines", func() bool { return b.Chat().Len() == 2 })
	eventually(t, "carol filtered", func() bool {
		return c.Chat().Len() == 1 && c.Stats().EventsFiltered == 1
	})

	// Full image share over UDP.
	im := wavelet.Medical(64, 64, 8)
	obj, err := media.EncodeImage(im, "udp scan")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("udp-img", obj, ""); err != nil {
		t.Fatal(err)
	}
	eventually(t, "image over UDP", func() bool {
		st, err := b.Viewer().Stats("udp-img")
		return err == nil && st.PacketsAccepted == 16
	})
	res, err := b.Viewer().Render("udp-img")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("image over UDP loopback should be lossless")
	}
}

// TestTraceTimelineEndToEnd reconstructs a cross-node timeline over the
// simulated substrate: a whole-frame chat line and a fragmented one,
// each expected to show the sender's publish/fragment hops and the
// receiver's match/deliver hops on a single merged trace.  The
// timeline is sorted by obs's wall-clock hop stamps, so the test runs
// on the wall clock.
func TestTraceTimelineEndToEnd(t *testing.T) {
	withFlightRecorder(t, func() {
		net := transport.NewSimNet(transport.SimNetConfig{Seed: 171})
		t.Cleanup(net.Close)
		connA, err := net.Attach("wired-0")
		if err != nil {
			t.Fatal(err)
		}
		connB, err := net.Attach("wired-1")
		if err != nil {
			t.Fatal(err)
		}
		// A small MTU forces the second (long) message to fragment.
		a := NewClient(connA, Config{MTU: 256})
		t.Cleanup(func() { a.Close() })
		b := NewClient(connB, Config{MTU: 256})
		t.Cleanup(func() { b.Close() })

		if err := a.Say("short line", ""); err != nil {
			t.Fatal(err)
		}
		long := strings.Repeat("a long collaborative line ", 64) // ~1.6 KB, fragments at MTU 256
		if err := a.Say(long, ""); err != nil {
			t.Fatal(err)
		}
		eventually(t, "both lines delivered", func() bool {
			return len(b.Chat().Lines()) == 2
		})

		for i, id := range []uint64{obs.MsgID("wired-0", 1), obs.MsgID("wired-0", 2)} {
			hops, ok := obs.Timeline(id)
			if !ok {
				t.Fatalf("message %d: no trace retained", i+1)
			}
			if hops[0].Stage != obs.StagePublish || hops[0].Node != "wired-0" {
				t.Errorf("message %d: first hop = %+v, want publish@wired-0", i+1, hops[0])
			}
			for _, want := range []struct {
				node  string
				stage obs.Stage
			}{
				{"wired-0", obs.StagePublish},
				{"wired-0", obs.StageFragment},
				{"wired-1", obs.StageMatch},
				{"wired-1", obs.StageDeliver},
			} {
				if !hasHop(hops, want.node, want.stage) {
					t.Errorf("message %d: missing hop %s@%s in %v", i+1, want.stage, want.node, hops)
				}
			}
			if last := hops[len(hops)-1]; last.Stage != obs.StageDeliver || last.Node != "wired-1" {
				t.Errorf("message %d: last hop = %+v, want deliver@wired-1", i+1, last)
			}
		}
		// The fragmented message must additionally show the receiver's
		// reassembly-completion hop.
		hops, _ := obs.Timeline(obs.MsgID("wired-0", 2))
		if !hasHop(hops, "wired-1", obs.StageFragment) {
			t.Errorf("fragmented message missing reassembly hop at wired-1: %v", hops)
		}

		// The summary view flags the delivered traces as complete.
		complete := 0
		for _, s := range obs.TraceSummaries(0) {
			if s.Complete() {
				complete++
			}
		}
		if complete < 2 {
			t.Errorf("expected >= 2 complete publish→deliver traces, got %d", complete)
		}
	})
}
