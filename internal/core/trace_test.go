package core

import (
	"slices"
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

// TestRepairReplayAppendsRepairHop drives a real gap-repair cycle: the
// sender's first frames are lost on the replica link, the replica NACKs
// the coordinator, and the replayed frames must carry a repair hop
// attributed to the coordinator on the original message's trace.
func TestRepairReplayAppendsRepairHop(t *testing.T) {
	withFlightRecorder(t, func() {
		net := newVNet(t, 172)
		coord := net.coordinator(session.Group{Objective: "trace-repair"})
		sender := net.client("sender-0", Config{})
		replica := net.client("replica-0", Config{Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond, // polled every 8ms
			MaxRetries:   10,
			Seed:         172,
		}})

		// Frames 1 and 2 are lost on the replica link only; the
		// coordinator hears everything and archives.
		net.SetLink("sender-0", "replica-0", transport.Link{Down: true})
		if err := sender.Say("a", ""); err != nil {
			t.Fatal(err)
		}
		if err := sender.Say("b", ""); err != nil {
			t.Fatal(err)
		}
		net.clk.Advance(0)
		if got := coord.ArchivedEvents(); got != 2 {
			t.Fatalf("coordinator archived %d of the lost frames, want 2", got)
		}
		net.SetLink("sender-0", "replica-0", transport.Link{})
		if err := sender.Say("c", ""); err != nil {
			t.Fatal(err)
		}

		// The replica stalls on the gap, NACKs, and converges via replay.
		net.clk.Advance(time.Second)
		if lines := senderLines(replica, "sender-0"); !slices.Equal(lines, []string{"a", "b", "c"}) {
			t.Fatalf("replica holds %q, want a, b, c", lines)
		}

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
