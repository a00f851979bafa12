package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/transport/transporttest"
)

// chaosNet is a repair-enabled topology: an archiving coordinator,
// dedicated senders and pure-receiver replicas.  Fault injection is
// applied only on the sender→replica links; the links into the
// coordinator stay clean (the archive must hear everything to answer
// NACKs) as do the replay links back out.
type chaosNet struct {
	*vnet
	coord    *Coordinator
	senders  []*Client
	replicas []*Client
	sent     map[string][]string // per sender: the lines it said, in order
}

func newChaosNet(t *testing.T, seed int64, nSenders, nReplicas int, link transport.Link) *chaosNet {
	t.Helper()
	net := newVNet(t, seed)
	// Lost, duplicated, reordered, replayed from the archive: a frame is
	// still the bytes it was when the network first carried it.
	transporttest.Watch(t, net)
	cn := &chaosNet{vnet: net, coord: net.coordinator(session.Group{Objective: "chaos-session"}), sent: map[string][]string{}}
	for i := 0; i < nSenders; i++ {
		cn.senders = append(cn.senders, net.client(fmt.Sprintf("sender-%d", i), Config{}))
	}
	for i := 0; i < nReplicas; i++ {
		cn.replicas = append(cn.replicas, net.client(fmt.Sprintf("replica-%d", i), Config{Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond, // polled every 8ms
			MaxRetries:   10,
			Seed:         seed + int64(i),
		}}))
	}
	cn.setSenderReplicaLinks(link)
	return cn
}

// setSenderReplicaLinks (re)configures every sender→replica directed
// link; pass the zero Link to heal.
func (cn *chaosNet) setSenderReplicaLinks(link transport.Link) {
	for _, s := range cn.senders {
		for _, r := range cn.replicas {
			cn.SetLink(s.ID(), r.ID(), link)
		}
	}
}

// say has sender j say text, and notes it as sent.
func (cn *chaosNet) say(j int, text string) {
	cn.t.Helper()
	s := cn.senders[j]
	if err := s.Say(text, ""); err != nil {
		cn.t.Fatal(err)
	}
	cn.sent[s.ID()] = append(cn.sent[s.ID()], text)
}

// senderLines extracts the texts a replica applied from one sender, in
// applied order.
func senderLines(r *Client, sender string) []string {
	var out []string
	for _, l := range r.Chat().Lines() {
		if l.Sender == sender {
			out = append(out, l.Text)
		}
	}
	return out
}

// assertConverged checks that every replica's applied per-sender chat
// sequence equals exactly what that sender sent — same order, zero
// gaps, zero duplicates — i.e. the replica converged to the
// coordinator's archive, and that the archive holds every line once.
func (cn *chaosNet) assertConverged() {
	cn.t.Helper()
	total := 0
	for sender, lines := range cn.sent {
		total += len(lines)
		for _, r := range cn.replicas {
			if got := senderLines(r, sender); !slices.Equal(got, lines) {
				cn.t.Errorf("%s holds %s's lines as %q, want %q", r.ID(), sender, got, lines)
			}
		}
	}
	if got := cn.coord.ArchivedEvents(); got != total {
		cn.t.Errorf("coordinator archived %d events, want %d", got, total)
	}
}

// TestRepairChaosMatrix drives the gap-repair loop through the fault
// matrix: loss, duplication, jitter-induced reordering, and their
// combination, each on a seeded DESNet.  Five virtual seconds after
// the last line every replica holds each sender's exact event
// sequence.
func TestRepairChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		link transport.Link
	}{
		{"loss", 101, transport.Link{Loss: 0.3}},
		{"duplicate", 102, transport.Link{Duplicate: 0.5}},
		{"jitter", 103, transport.Link{Jitter: 15 * time.Millisecond}},
		{"loss+duplicate+jitter", 104, transport.Link{Loss: 0.25, Duplicate: 0.3, Jitter: 10 * time.Millisecond}},
	}
	const nMsgs = 25
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cn := newChaosNet(t, tc.seed, 2, 2, tc.link)
			for i := 0; i < nMsgs; i++ {
				for j := range cn.senders {
					cn.say(j, fmt.Sprintf("%s-s%d-%d", tc.name, j, i))
				}
				cn.clk.Advance(2 * time.Millisecond)
			}
			// Heal, then send a marker per sender: tail loss is invisible
			// until a later event parks behind the gap, so the marker is
			// what lets the repair loop see (and close) trailing gaps.
			cn.setSenderReplicaLinks(transport.Link{})
			for j := range cn.senders {
				cn.say(j, fmt.Sprintf("%s-s%d-done", tc.name, j))
			}
			cn.clk.Advance(5 * time.Second)
			cn.assertConverged()
		})
	}
}

// TestRepairHealedPartition is the acceptance scenario: Loss=0.3 on
// the sender→replica links plus a 2s partition of sender-0 from both
// replicas.  Five virtual seconds after the partition heals, every
// replica has converged to the coordinator's archive, and the repair
// counters appear in the /metrics exposition.
func TestRepairHealedPartition(t *testing.T) {
	before := metrics.Counters()

	cn := newChaosNet(t, 200, 2, 2, transport.Link{Loss: 0.3})
	for _, r := range cn.replicas {
		cn.Partition(cn.senders[0].ID(), r.ID(), true)
	}

	// 2s of traffic while sender-0 is partitioned from the replicas
	// (the coordinator still hears everything).
	const nMsgs = 25
	for i := 0; i < nMsgs; i++ {
		cn.say(0, fmt.Sprintf("part-s0-%d", i))
		cn.say(1, fmt.Sprintf("part-s1-%d", i))
		cn.clk.Advance(80 * time.Millisecond)
	}

	// Heal everything and mark the stream tails.
	for _, r := range cn.replicas {
		cn.Partition(cn.senders[0].ID(), r.ID(), false)
	}
	cn.setSenderReplicaLinks(transport.Link{})
	cn.say(0, "part-s0-done")
	cn.say(1, "part-s1-done")
	cn.clk.Advance(5 * time.Second)
	cn.assertConverged()

	after := metrics.Counters()
	if after[metrics.CtrRepairRequests] <= before[metrics.CtrRepairRequests] {
		t.Error("no repair requests issued during a 2s partition with 30% loss")
	}
	if after[metrics.CtrRepairSuccess] <= before[metrics.CtrRepairSuccess] {
		t.Error("no repairs recorded despite convergence")
	}

	// The counters must be visible through the exposition endpoint.
	var sb strings.Builder
	if err := obs.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aqos_repair_requests", "aqos_repair_success", "aqos_repair_abandoned"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("/metrics exposition missing %s", name)
		}
	}
}

// TestRepairAbandonsUnrepairableGap exercises graceful degradation:
// with no coordinator to answer NACKs, a deterministic gap exhausts
// the retry budget, is skipped, and delivery resumes.
func TestRepairAbandonsUnrepairableGap(t *testing.T) {
	net := newVNet(t, 300)
	before := metrics.Counters()

	sender := net.client("alice", Config{})
	// The configured coordinator does not exist: every repair request
	// fails, so the gap can only be abandoned.
	replica := net.client("replica", Config{Repair: &RepairOptions{
		Coordinator:  "coordinator",
		StallTimeout: 20 * time.Millisecond,
		MaxRetries:   2,
		Seed:         300,
	}})

	// Deterministic gap: the first message is sent into a down link.
	net.SetLink("alice", "replica", transport.Link{Down: true})
	if err := sender.Say("lost forever", ""); err != nil {
		t.Fatal(err)
	}
	net.SetLink("alice", "replica", transport.Link{})
	if err := sender.Say("parked behind the gap", ""); err != nil {
		t.Fatal(err)
	}

	// The second message parks, the repair loop burns its budget, the
	// gap is abandoned and delivery resumes.
	net.clk.Advance(time.Second)
	if lines := senderLines(replica, "alice"); !slices.Equal(lines, []string{"parked behind the gap"}) {
		t.Fatalf("replica released %q, want the parked line", lines)
	}
	st := repairStatus(replica)["alice"]
	if st.Abandoned != 1 {
		t.Errorf("abandoned = %d, want 1", st.Abandoned)
	}
	if st.Requests == 0 {
		t.Error("no requests issued before abandoning")
	}
	after := metrics.Counters()
	if after[metrics.CtrRepairAbandoned] <= before[metrics.CtrRepairAbandoned] {
		t.Error("abandon not counted in process metrics")
	}

	// The stream stays usable after the skip.
	if err := sender.Say("life goes on", ""); err != nil {
		t.Fatal(err)
	}
	net.clk.Advance(time.Second)
	if got := replica.Chat().Len(); got != 2 {
		t.Errorf("replica holds %d lines after the abandon, want 2", got)
	}
}

// TestCoordinatorDuplicateArchiveRegression injects heavy frame
// duplication on the sender→coordinator link: every event must be
// archived exactly once (the archive's index must drop duplicates of
// frames it already holds).
func TestCoordinatorDuplicateArchiveRegression(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	before := metrics.Counters()
	a := net.client("alice", Config{})
	net.SetLink("alice", "coordinator", transport.Link{Duplicate: 1})

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Say(fmt.Sprintf("dup line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// Every copy, duplicates included, has landed.
	net.settle()
	if got := coord.ArchivedEvents(); got != n {
		t.Errorf("archived = %d after duplicates, want %d", got, n)
	}
	after := metrics.Counters()
	if after[metrics.CtrArchiveDupDrops] <= before[metrics.CtrArchiveDupDrops] {
		t.Error("duplicate drops not counted")
	}
}
