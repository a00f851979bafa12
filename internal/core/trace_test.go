package core

import (
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// withFlightRecorder runs the body with wire tracing on and restores a
// clean disabled state afterwards.
func withFlightRecorder(t *testing.T, body func()) {
	t.Helper()
	obs.SetTraceEnabled(true)
	obs.ResetFlight()
	t.Cleanup(func() {
		obs.SetTraceEnabled(false)
		obs.ResetFlight()
	})
	body()
}

func hasHop(hops []obs.Hop, node string, stage obs.Stage) bool {
	for _, h := range hops {
		if h.Node == node && h.Stage == stage {
			return true
		}
	}
	return false
}

// TestTraceTimelineEndToEnd reconstructs a cross-node timeline over the
// simulated substrate: a whole-frame chat line and a fragmented one,
// each expected to show the sender's publish/fragment hops and the
// receiver's match/deliver hops on a single merged trace.
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
		waitFor(t, "both lines delivered", func() bool {
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

// TestRepairReplayAppendsRepairHop drives a real gap-repair cycle: the
// sender's first frames are lost on the replica link, the replica NACKs
// the coordinator, and the replayed frames must carry a repair hop
// attributed to the coordinator on the original message's trace.
func TestRepairReplayAppendsRepairHop(t *testing.T) {
	withFlightRecorder(t, func() {
		net := transport.NewSimNet(transport.SimNetConfig{Seed: 172})
		t.Cleanup(net.Close)
		cc, err := net.Attach("coordinator")
		if err != nil {
			t.Fatal(err)
		}
		coord := NewCoordinator(cc, session.Group{Objective: "trace-repair"})
		t.Cleanup(func() { coord.Close() })
		sc, err := net.Attach("sender-0")
		if err != nil {
			t.Fatal(err)
		}
		sender := NewClient(sc, Config{})
		t.Cleanup(func() { sender.Close() })
		rc, err := net.Attach("replica-0")
		if err != nil {
			t.Fatal(err)
		}
		replica := NewClient(rc, Config{Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond, // polled every 8ms
			MaxRetries:   10,
			Seed:         172,
		}})
		t.Cleanup(func() { replica.Close() })

		// Frames 1 and 2 are lost on the replica link only; the
		// coordinator hears everything and archives.
		net.SetLink("sender-0", "replica-0", transport.Link{Down: true})
		if err := sender.Say("a", ""); err != nil {
			t.Fatal(err)
		}
		if err := sender.Say("b", ""); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "coordinator archiving the lost frames", func() bool {
			return coord.ArchivedEvents() >= 2
		})
		net.SetLink("sender-0", "replica-0", transport.Link{})
		if err := sender.Say("c", ""); err != nil {
			t.Fatal(err)
		}

		// The replica stalls on the gap, NACKs, and converges via replay.
		waitFor(t, "replica absorbing the replayed history", func() bool {
			lines := senderLines(replica, "sender-0")
			return len(lines) == 3 && lines[0] == "a" && lines[1] == "b" && lines[2] == "c"
		})

		for seq := uint32(1); seq <= 2; seq++ {
			hops := obs.Hops(obs.MsgID("sender-0", seq))
			if !hasHop(hops, "coordinator", obs.StageRepair) {
				t.Errorf("seq %d: no repair hop from the coordinator in %v", seq, hops)
			}
			if !hasHop(hops, "coordinator", obs.StageArchive) {
				t.Errorf("seq %d: no archive hop from the coordinator in %v", seq, hops)
			}
			if !hasHop(hops, "replica-0", obs.StageDeliver) {
				t.Errorf("seq %d: replayed frame never delivered at the replica: %v", seq, hops)
			}
			if !hasHop(hops, "replica-0", obs.StageReorder) {
				t.Errorf("seq %d: no reorder-release hop at the replica: %v", seq, hops)
			}
		}
	})
}
