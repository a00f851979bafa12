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
	clk     clock.Clock
	mu      sync.Mutex
	byPeer  map[string]float64 // reporter → last fraction lost
	expires map[string]time.Time
}

func newReportState(clk clock.Clock) *reportState {
	return &reportState{
		clk:     clk,
		byPeer:  make(map[string]float64),
		expires: make(map[string]time.Time),
	}
}

// reportTTL bounds how long a stale report keeps throttling a sender.
const reportTTL = 30 * time.Second

func (rs *reportState) record(reporter string, fracLost float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.byPeer[reporter] = fracLost
	rs.expires[reporter] = rs.clk.Now().Add(reportTTL)
}

// worst returns the highest live loss fraction reported by any peer.
func (rs *reportState) worst() float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	now := rs.clk.Now()
	var worst float64
	for peer, f := range rs.byPeer {
		if now.After(rs.expires[peer]) {
			delete(rs.byPeer, peer)
			delete(rs.expires, peer)
			continue
		}
		if f > worst {
			worst = f
		}
	}
	return worst
}

// SendReceptionReports multicasts one RTCP-style receiver report per
// sender this client has received data from, in sender order.  Call periodically (or
// after image receptions) so senders can adapt their transmissions.
func (c *Client) SendReceptionReports() error {
	for _, st := range c.receptionStats() {
		rr := st.recv.Report(rtp.SSRCOf(st.sender))
		m := &message.Message{
			Kind:      message.KindControl,
			Sender:    c.ID(),
			Seq:       c.k.ctrlSeq.Add(1),
			Timestamp: c.clk.Now(),
			Attrs: selector.Attributes{
				attrCtrl:     selector.S(ctrlRTCPReport),
				attrSubject:  selector.S(st.sender),
				attrFracLost: selector.N(rr.FractionLost),
				attrJitterMs: selector.N(float64(rr.Jitter)),
			},
		}
		if err := c.multicast(m); err != nil {
			return err
		}
		c.stats.reports.Add(1)
	}
	return nil
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

// observedJitter returns the mean RTP interarrival jitter across every
// sender this client receives data from, in the arrival clock's units
// (milliseconds here).  ok is false with no data streams.
func (c *Client) observedJitter() (float64, bool) {
	streams := c.receptionStats()
	if len(streams) == 0 {
		return 0, false
	}
	var sum float64
	for _, st := range streams {
		sum += st.Jitter
	}
	return sum / float64(len(streams)), true
}

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
