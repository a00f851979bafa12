package core

import (
	"fmt"
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
	net      *transport.SimNet
	coord    *Coordinator
	senders  []*Client
	replicas []*Client
}

func newChaosNet(t *testing.T, seed int64, nSenders, nReplicas int, link transport.Link) *chaosNet {
	t.Helper()
	net := transport.NewSimNet(transport.SimNetConfig{Seed: seed})
	t.Cleanup(net.Close)
	// Lost, duplicated, reordered, replayed from the archive: a frame is
	// still the bytes it was when the network first carried it.
	transporttest.Watch(t, net)
	conn, err := net.Attach("coordinator")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(conn, session.Group{Objective: "chaos-session"})
	t.Cleanup(func() { coord.Close() })

	cn := &chaosNet{net: net, coord: coord}
	for i := 0; i < nSenders; i++ {
		c, err := net.Attach(fmt.Sprintf("sender-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		s := NewClient(c, Config{})
		t.Cleanup(func() { s.Close() })
		cn.senders = append(cn.senders, s)
	}
	for i := 0; i < nReplicas; i++ {
		c, err := net.Attach(fmt.Sprintf("replica-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		r := NewClient(c, Config{Repair: &RepairOptions{
			Coordinator:  "coordinator",
			StallTimeout: 32 * time.Millisecond, // polled every 8ms
			MaxRetries:   10,
			Seed:         seed + int64(i),
		}})
		t.Cleanup(func() { r.Close() })
		cn.replicas = append(cn.replicas, r)
	}
	cn.setSenderReplicaLinks(link)
	return cn
}

// setSenderReplicaLinks (re)configures every sender→replica directed
// link; pass the zero Link to heal.
func (cn *chaosNet) setSenderReplicaLinks(link transport.Link) {
	for _, s := range cn.senders {
		for _, r := range cn.replicas {
			cn.net.SetLink(s.ID(), r.ID(), link)
		}
	}
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

// assertConverged waits until every replica's applied per-sender chat
// sequence equals exactly what that sender sent — same order, zero
// gaps, zero duplicates — i.e. the replica converged to the
// coordinator's archive.
func assertConverged(t *testing.T, cn *chaosNet, want map[string][]string) {
	t.Helper()
	equal := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, r := range cn.replicas {
		for sender, lines := range want {
			r, sender, lines := r, sender, lines
			waitFor(t, fmt.Sprintf("%s converging on %s", r.ID(), sender), func() bool {
				return equal(senderLines(r, sender), lines)
			})
		}
	}
}

// TestRepairChaosMatrix drives the gap-repair loop through the fault
// matrix: loss, duplication, jitter-induced reordering, and their
// combination, each on a seeded SimNet.  Every replica must converge
// to each sender's exact event sequence.
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
			want := make(map[string][]string)
			for i := 0; i < nMsgs; i++ {
				for j, s := range cn.senders {
					text := fmt.Sprintf("%s-s%d-%d", tc.name, j, i)
					if err := s.Say(text, ""); err != nil {
						t.Fatal(err)
					}
					want[s.ID()] = append(want[s.ID()], text)
				}
				time.Sleep(2 * time.Millisecond)
			}
			// Heal, then send a marker per sender: tail loss is invisible
			// until a later event parks behind the gap, so the marker is
			// what lets the repair loop see (and close) trailing gaps.
			cn.setSenderReplicaLinks(transport.Link{})
			for j, s := range cn.senders {
				text := fmt.Sprintf("%s-s%d-done", tc.name, j)
				if err := s.Say(text, ""); err != nil {
					t.Fatal(err)
				}
				want[s.ID()] = append(want[s.ID()], text)
			}

			assertConverged(t, cn, want)
			waitFor(t, "coordinator archive", func() bool {
				return cn.coord.ArchivedEvents() == len(cn.senders)*(nMsgs+1)
			})
		})
	}
}

// TestRepairHealedPartition is the acceptance scenario: Loss=0.3 on
// the sender→replica links plus a 2s partition of sender-0 from both
// replicas.  After the partition heals, every replica converges to the
// coordinator's archive, and the repair counters appear in the
// /metrics exposition.
func TestRepairHealedPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("2s partition window")
	}
	before := metrics.Counters()

	cn := newChaosNet(t, 200, 2, 2, transport.Link{Loss: 0.3})
	for _, r := range cn.replicas {
		cn.net.Partition(cn.senders[0].ID(), r.ID(), true)
	}

	want := make(map[string][]string)
	say := func(j int, text string) {
		t.Helper()
		if err := cn.senders[j].Say(text, ""); err != nil {
			t.Fatal(err)
		}
		want[cn.senders[j].ID()] = append(want[cn.senders[j].ID()], text)
	}
	// ~2s of traffic while sender-0 is partitioned from the replicas
	// (the coordinator still hears everything).
	const nMsgs = 25
	start := time.Now()
	for i := 0; i < nMsgs; i++ {
		say(0, fmt.Sprintf("part-s0-%d", i))
		say(1, fmt.Sprintf("part-s1-%d", i))
		time.Sleep(80 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		time.Sleep(2*time.Second - elapsed)
	}

	// Heal everything and mark the stream tails.
	for _, r := range cn.replicas {
		cn.net.Partition(cn.senders[0].ID(), r.ID(), false)
	}
	cn.setSenderReplicaLinks(transport.Link{})
	say(0, "part-s0-done")
	say(1, "part-s1-done")

	assertConverged(t, cn, want)
	waitFor(t, "coordinator archive", func() bool {
		return cn.coord.ArchivedEvents() == 2*(nMsgs+1)
	})

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
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 300})
	t.Cleanup(net.Close)
	before := metrics.Counters()

	sc, err := net.Attach("alice")
	if err != nil {
		t.Fatal(err)
	}
	sender := NewClient(sc, Config{})
	defer sender.Close()

	rc, err := net.Attach("replica")
	if err != nil {
		t.Fatal(err)
	}
	// The configured coordinator does not exist: every repair request
	// fails, so the gap can only be abandoned.
	replica := NewClient(rc, Config{Repair: &RepairOptions{
		Coordinator:  "coordinator",
		StallTimeout: 20 * time.Millisecond,
		MaxRetries:   2,
		Seed:         300,
	}})
	defer replica.Close()

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
	waitFor(t, "abandoned gap released", func() bool {
		return replica.Chat().Len() == 1
	})
	if got := replica.Chat().Lines()[0].Text; got != "parked behind the gap" {
		t.Errorf("released line = %q", got)
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
	waitFor(t, "post-abandon delivery", func() bool {
		return replica.Chat().Len() == 2
	})
}

// TestCoordinatorDuplicateArchiveRegression injects heavy frame
// duplication on the sender→coordinator link: every event must be
// archived exactly once (the straggler path must not re-archive
// duplicates of already-sequenced frames).
func TestCoordinatorDuplicateArchiveRegression(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	before := metrics.Counters()
	ca, err := net.Attach("alice")
	if err != nil {
		t.Fatal(err)
	}
	a := NewClient(ca, Config{})
	defer a.Close()
	net.SetLink("alice", "coordinator", transport.Link{Duplicate: 1})

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Say(fmt.Sprintf("dup line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archive", func() bool { return coord.ArchivedEvents() == n })
	// Let the duplicate copies land too, then re-check: the count must
	// not keep growing.
	time.Sleep(100 * time.Millisecond)
	if got := coord.ArchivedEvents(); got != n {
		t.Errorf("archived = %d after duplicates, want %d", got, n)
	}
	after := metrics.Counters()
	if after[metrics.CtrArchiveDupDrops] <= before[metrics.CtrArchiveDupDrops] {
		t.Error("duplicate drops not counted")
	}
}
