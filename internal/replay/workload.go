// Package replay reruns a recorded collaboration session against
// alternative QoS policies — counterfactual policy replay (DESIGN.md
// §15, ROADMAP 5).  A v1 JSONL session record (obs.LoadSession) is
// reduced to a Workload: the publish schedule (who sent what, when, how
// big), the host-resource timeline the inference rules reacted to, the
// observed per-link loss, and the wireless clients' SIR trace.  The
// workload is then re-simulated on clock.Virtual + transport.DESNet
// under each candidate Policy, and the outcomes are scored with the
// same burn-rate math the live SLO engine uses, so "what would policy X
// have done to this session" is answered deterministically: the same
// record and grid always produce byte-identical rankings.
package replay

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// ErrNoWorkload reports a session record with no publish events — a
// pre-PR-9 record, or a session where nothing was published.  There is
// nothing to replay.
var ErrNoWorkload = errors.New("replay: record carries no publish events")

// Publish is one recorded workload frame.
type Publish struct {
	AtNS   int64  // virtual publish instant (record timeline)
	Sender string // publishing client
	Seq    uint64 // recorded per-sender sequence (reporting only;
	// replay renumbers, since candidate budgets change which
	// frames exist before sequencing)
	Kind     string // "event" or "data"
	Modality string // media attribute ("", "image", ...)
	Level    int    // progressive refinement level (data frames)
	Size     int    // payload bytes
}

// HostSample is one recorded host-resource gauge sample.
type HostSample struct {
	AtNS  int64
	Host  string
	Param string // hostagent param name, e.g. "cpu-load"
	Value float64
}

// SIRSample is one recorded wireless-client SIR sample.
type SIRSample struct {
	AtNS   int64
	Client string
	SIRdB  float64
}

// Workload is everything the replay needs from a recorded session.
type Workload struct {
	StartNS int64 // header start (virtual epoch of the rerun)
	EndNS   int64 // last publish or qos event instant

	// Publishes, sorted by (AtNS, Sender, Seq): the offered load.
	Publishes []Publish
	// Senders and Receivers (both sorted) are the replayed multicast
	// group: every publisher plus every client that reported RTP loss.
	// Wireless clients present only via SIR samples are not simulated
	// on the network — candidate tier thresholds are scored against
	// their recorded SIR trace instead (see fitness.go).
	Senders   []string
	Receivers []string

	// Host is the resource timeline, per param, each slice sorted by
	// AtNS: the inputs the inference budget reacts to during replay.
	Host map[string][]HostSample

	// SIR is the wireless clients' recorded SIR trace, sorted by
	// (AtNS, Client).
	SIR []SIRSample

	// MeanLoss is the mean of every rtp_loss_fraction sample — the
	// observed link condition the replayed network reproduces (the
	// driver may override it).
	MeanLoss float64

	// Truncated reports the record ended in a half-written line (the
	// workload is everything before the tear).
	Truncated bool
}

// Span returns the workload's duration in nanoseconds.
func (w *Workload) Span() int64 { return w.EndNS - w.StartNS }

// ExtractWorkload reduces a loaded session record to its replayable
// workload.  Records without publish events are rejected with
// ErrNoWorkload: there is nothing to rerun.  The workload's span ends at
// the last publish or qos event, the two the rerun replays: span and
// note events time in-process work on the wall clock, which a session
// run on a virtual clock does not share.
func ExtractWorkload(s *obs.Session) (*Workload, error) {
	w := &Workload{
		StartNS:   s.Header.StartNS,
		Host:      make(map[string][]HostSample),
		Truncated: s.Truncated,
	}
	senders := make(map[string]bool)
	receivers := make(map[string]bool)
	var lossSum float64
	var lossN int

	for i := range s.Events {
		ev := &s.Events[i]
		if (ev.Type == obs.RecTypePublish || ev.Type == obs.RecTypeQoS) && ev.AtNS > w.EndNS {
			w.EndNS = ev.AtNS
		}
		switch ev.Type {
		case obs.RecTypePublish:
			// The rerun re-encodes every publish with the real codec.
			if ev.Size < 0 || ev.Size > message.MaxBodyLen ||
				len(ev.Client) > message.MaxStringLen || len(ev.Detail) > message.MaxStringLen {
				return nil, fmt.Errorf("replay: publish record %d (sender %.32q, %d bytes) is beyond the wire codec's limits", i, ev.Client, ev.Size)
			}
			w.Publishes = append(w.Publishes, Publish{
				AtNS:     ev.AtNS,
				Sender:   ev.Client,
				Seq:      ev.Seq,
				Kind:     ev.Name,
				Modality: ev.Detail,
				Level:    ev.Level,
				Size:     ev.Size,
			})
			senders[ev.Client] = true
		case obs.RecTypeQoS:
			base, labels, ok := parseGaugeName(ev.Name)
			if !ok {
				continue
			}
			switch base {
			case "host_param":
				w.Host[labels["param"]] = append(w.Host[labels["param"]], HostSample{
					AtNS: ev.AtNS, Host: labels["host"],
					Param: labels["param"], Value: ev.Value,
				})
			case "client_sir_db":
				w.SIR = append(w.SIR, SIRSample{
					AtNS: ev.AtNS, Client: labels["client"], SIRdB: ev.Value,
				})
			case "rtp_loss_fraction":
				// Only the per-sender series carry a sender label; the
				// client-wide aggregate (no sender) would double-count.
				if labels["sender"] == "" {
					continue
				}
				receivers[labels["client"]] = true
				// A loss fraction outside [0, 1] is a corrupt sample:
				// clamped, so neither it nor a sum of them can carry the
				// mean out of range or to +Inf.
				if !math.IsNaN(ev.Value) {
					lossSum += min(max(ev.Value, 0), 1)
					lossN++
				}
			}
		}
	}
	if len(w.Publishes) == 0 {
		return nil, ErrNoWorkload
	}
	if lossN > 0 {
		w.MeanLoss = lossSum / float64(lossN)
	}

	sort.Slice(w.Publishes, func(i, j int) bool {
		a, b := w.Publishes[i], w.Publishes[j]
		if a.AtNS != b.AtNS {
			return a.AtNS < b.AtNS
		}
		if a.Sender != b.Sender {
			return a.Sender < b.Sender
		}
		return a.Seq < b.Seq
	})
	for _, hs := range w.Host {
		sort.Slice(hs, func(i, j int) bool { return hs[i].AtNS < hs[j].AtNS })
	}
	sort.Slice(w.SIR, func(i, j int) bool {
		if w.SIR[i].AtNS != w.SIR[j].AtNS {
			return w.SIR[i].AtNS < w.SIR[j].AtNS
		}
		return w.SIR[i].Client < w.SIR[j].Client
	})

	// The multicast group: publishers plus loss-reporting receivers.
	for id := range senders {
		w.Senders = append(w.Senders, id)
		receivers[id] = true
	}
	sort.Strings(w.Senders)
	for id := range receivers {
		w.Receivers = append(w.Receivers, id)
	}
	sort.Strings(w.Receivers)

	// Anchor: records written before the first event (or with a wall
	// header over a virtual timeline) can place StartNS after the
	// events; clamp to the earliest instant seen.
	if first := w.Publishes[0].AtNS; w.StartNS > first || w.StartNS == 0 {
		w.StartNS = first
	}
	if w.EndNS < w.StartNS {
		w.EndNS = w.StartNS
	}
	return w, nil
}

// hostValueAt returns the mean over hosts of the latest sample at or
// before atNS for one param; NaN when no host has reported yet (the
// inference budget treats NaN as unobserved → unconstrained).
func (w *Workload) hostValueAt(param string, atNS int64) float64 {
	hs := w.Host[param]
	if len(hs) == 0 {
		return math.NaN()
	}
	// Latest sample per host ≤ atNS (slices are AtNS-sorted).
	latest := make(map[string]float64)
	for i := range hs {
		if hs[i].AtNS > atNS {
			break
		}
		latest[hs[i].Host] = hs[i].Value
	}
	if len(latest) == 0 {
		return math.NaN()
	}
	// Sum in sorted host order: float addition is order-sensitive and
	// map iteration would make reruns diverge in the last ulp.
	hosts := make([]string, 0, len(latest))
	for h := range latest {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	var sum float64
	for _, h := range hosts {
		sum += latest[h]
	}
	return sum / float64(len(latest))
}

// parseGaugeName splits a Prometheus-style gauge name
// (`base{k="v",k2="v2"}`) into base and labels, each value decoded by
// metrics.UnescapeLabel.  Names without labels return ok with an empty
// map.
func parseGaugeName(name string) (base string, labels map[string]string, ok bool) {
	labels = map[string]string{}
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, labels, true
	}
	if !strings.HasSuffix(name, "}") {
		return "", nil, false
	}
	base = name[:i]
	body := name[i+1 : len(name)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return "", nil, false
		}
		key := body[:eq]
		rest := body[eq+2:]
		j := 0
		for ; j < len(rest) && rest[j] != '"'; j++ {
			if rest[j] == '\\' {
				j++ // the escaped byte cannot close the value
			}
		}
		if j >= len(rest) {
			return "", nil, false // unterminated value
		}
		labels[key] = metrics.UnescapeLabel(rest[:j])
		body = rest[j+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return "", nil, false
		}
	}
	return base, labels, true
}

// String summarizes the workload for logs.
func (w *Workload) String() string {
	return fmt.Sprintf("workload: %d publishes from %d sender(s) to %d receiver(s) over %.2fs (mean loss %.1f%%)",
		len(w.Publishes), len(w.Senders), len(w.Receivers),
		float64(w.Span())/1e9, 100*w.MeanLoss)
}
