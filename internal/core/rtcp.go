package core

import (
	"math"
	"sync"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
)

// RTCP-style feedback: receivers periodically report their reception
// quality per sender; senders aggregate the worst report and reduce
// what they transmit — the send-side half of adaptation ("centralized
// adaptation of the information transferred"), complementing the
// receive-side packet budget.

const (
	ctrlRTCPReport = "rtcp-rr"
	attrSubject    = "subject"       // the sender the report describes
	attrFracLost   = "fraction-lost" // loss fraction in [0,1]
	attrJitterMs   = "jitter-ms"
)

// reportState aggregates inbound reception reports about this client's
// own data streams.
type reportState struct {
	clk    clock.Clock
	mu     sync.Mutex
	byPeer map[string]peerReport
}

// peerReport is a reporter's last fraction lost and when it goes stale.
type peerReport struct {
	fracLost float64
	expires  time.Time
}

func newReportState(clk clock.Clock) *reportState {
	return &reportState{clk: clk, byPeer: make(map[string]peerReport)}
}

// reportTTL bounds how long a stale report keeps throttling a sender.
const reportTTL = 30 * time.Second

func (rs *reportState) record(reporter string, fracLost float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.byPeer[reporter] = peerReport{fracLost, rs.clk.Now().Add(reportTTL)}
}

// worst returns the highest live loss fraction reported by any peer.
func (rs *reportState) worst() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	now := rs.clk.Now()
	var worst float64
	for peer, r := range rs.byPeer {
		if now.After(r.expires) {
			delete(rs.byPeer, peer)
			continue
		}
		worst = max(worst, r.fracLost)
	}
	return worst
}

// sendReceptionReports multicasts, in sender order, one RTCP-style
// receiver report per stream heard since its last report (RFC 3550
// §6.4: a silent stream's empty interval would read as no loss and
// lift the sender's throttle).  The first send that fails ends it.
func (c *Client) sendReceptionReports(streams []streamStats) {
	for _, st := range streams {
		if c.reported[st.sender] == st.Received {
			continue
		}
		c.reported[st.sender] = st.Received
		rr := st.recv.Report(rtp.SSRCOf(st.sender))
		m := &message.Message{
			Kind:      message.KindControl,
			Sender:    c.ID(),
			Seq:       c.k.ctrlSeq.Add(1),
			Timestamp: c.clk.Now(),
		}
		m.SetAttrs([]message.Attr{
			{Name: attrCtrl, Value: selector.S(ctrlRTCPReport)},
			{Name: attrFracLost, Value: selector.N(rr.FractionLost)},
			{Name: attrJitterMs, Value: selector.N(float64(rr.Jitter))},
			{Name: attrSubject, Value: selector.S(st.sender)},
		})
		if c.multicast(m) != nil {
			return
		}
		c.stats.reports.Add(1)
	}
}

// handleRTCPReport records a reception report that concerns this
// client's own streams.
func (c *Client) handleRTCPReport(m *message.Message) bool {
	ctrl, ok := m.Attr(attrCtrl)
	if !ok || ctrl.Str() != ctrlRTCPReport {
		return false
	}
	subject, ok := m.Attr(attrSubject)
	if !ok || subject.Str() != c.ID() {
		return true // a report about someone else: consumed, ignored
	}
	frac, ok := m.Attr(attrFracLost)
	if !ok || math.IsNaN(frac.Num()) {
		return true // unobserved: the peer's last real report stands
	}
	f := frac.Num()
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	c.reports.record(m.Sender, f)
	return true
}

// WorstPeerLoss returns the highest loss fraction any receiver has
// recently reported for this client's data streams.
func (c *Client) WorstPeerLoss() float64 { return c.reports.worst() }

// sendBudget resolves how many of total packets to actually transmit,
// given receiver feedback.  With no reports everything is sent.
func (c *Client) sendBudget(total int) int {
	worst := c.reports.worst()
	if worst <= 0 {
		return total
	}
	state := selector.Attributes{inference.StateLoss: selector.N(worst)}
	budget := inference.Params{MaxPackets: total}.Decide(state).EffectiveBudget(total)
	if budget < 1 {
		budget = 1 // always send at least the base layer
	}
	return budget
}
