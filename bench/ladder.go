package main

import (
	"fmt"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// fastReps is how many back-to-back calls one span times for functions
// that take tens of nanoseconds and have no side effects.
const fastReps = 32

// pathKit is the single-goroutine stand-in for one hop of the real
// pipeline: a private zero-delay SimNet with one sender and the
// workload's receiver profiles, walked through the public functions
// core.Client calls on its send and receive paths.
type pathKit struct {
	net    *transport.SimNet
	src    transport.Conn
	dsts   []transport.Conn
	env    message.Enveloper
	unwrap []*message.Unwrapper
	pms    []*profile.Manager
	all    []int // every receiver index
}

// newPathKit attaches one sender and one receiver per profile manager.
func newPathKit(mtu int, pms []*profile.Manager) (*pathKit, error) {
	k := &pathKit{
		net: transport.NewSimNet(transport.SimNetConfig{Seed: 1, InboxDepth: 4096}),
		env: message.Enveloper{MTU: mtu},
		pms: pms,
	}
	var err error
	if k.src, err = k.net.Attach("ladder-src"); err != nil {
		return nil, err
	}
	for i := range pms {
		c, err := k.net.Attach(fmt.Sprintf("ladder-dst-%d", i))
		if err != nil {
			return nil, err
		}
		k.dsts = append(k.dsts, c)
		k.unwrap = append(k.unwrap, message.NewUnwrapper())
		k.all = append(k.all, i)
	}
	return k, nil
}

func (k *pathKit) close() { k.net.Close() }

// walk sends m from the kit's sender — multicast when to is nil, else
// one unicast per listed receiver — and runs each receiver's
// unwrap -> decode -> flat-snapshot -> match steps, calling apply for
// the receivers the selector admits.  It returns how many matched.
func (k *pathKit) walk(tr *tracer, op int, m *message.Message, to []int, apply func(r int, m *message.Message)) int {
	if m.Selector != "" {
		tr.doN("selector.compile_cached", op, fastReps, func() { selector.CompileCached(m.Selector) })
	}
	tr.do("message.encode", op, func() { message.Encode(m) })
	var dgrams [][]byte
	tr.do("message.wrap", op, func() { dgrams, _ = k.env.WrapMessage(m) })
	tr.counts["message.datagrams"] += uint64(len(dgrams))
	tr.counts["message.body_bytes"] += uint64(len(m.Body))
	for _, d := range dgrams {
		tr.counts["message.wire_bytes"] += uint64(len(d))
		if to == nil {
			tr.do("transport.simnet_multicast", op, func() { k.src.Multicast(d) })
			continue
		}
		for _, r := range to {
			tr.do("transport.simnet_unicast", op, func() { k.src.Unicast(k.dsts[r].ID(), d) })
		}
	}
	if to == nil {
		to = k.all
	}
	matched := 0
	for _, r := range to {
		var mm *message.Message
		for range dgrams {
			pkt := <-k.dsts[r].Recv() // zero-delay links deliver synchronously
			var frame []byte
			tr.do("message.unwrap", op, func() { frame, _ = k.unwrap[r].Unwrap(pkt.From, pkt.Data) })
			if frame != nil {
				tr.do("message.decode", op, func() { mm, _ = message.Decode(frame) })
			}
		}
		if mm == nil {
			continue
		}
		var flat selector.Attributes
		tr.doN("profile.flat_snapshot", op, fastReps, func() { flat, _ = k.pms[r].FlatSnapshot() })
		var ok bool
		tr.doN("selector.match", op, fastReps, func() { ok = mm.MatchProfile(flat) })
		if ok {
			matched++
			if apply != nil {
				apply(r, mm)
			}
		}
	}
	return matched
}

// commonLadder times the rungs that need no workload state beyond a
// sample message and a profile: cold selector compile, flat rebuild
// after a state change, SimNet unicast, and the two alloc counts.
func (k *pathKit) commonLadder(tr *tracer, sample []*message.Message, lay layers) {
	for op, m := range sample {
		if m.Selector != "" {
			tr.do("selector.compile_cold", op, func() { selector.Compile(m.Selector) })
		}
		pm := k.pms[op%len(k.pms)]
		tr.do("profile.flat_rebuild", op, func() {
			pm.SetState("bench-tick", selector.N(float64(op)))
			pm.FlatSnapshot()
		})
		frame, _ := message.Encode(m)
		d := message.WrapWhole(frame)
		if len(d) <= 64<<10 {
			tr.do("transport.simnet_unicast", op, func() { k.src.Unicast(k.dsts[0].ID(), d) })
			<-k.dsts[0].Recv()
		}
	}
	m := sample[0]
	frame, _ := message.Encode(m)
	lay["message.wrap_allocs"] = allocsPer(512, func() { k.env.WrapMessage(m) })
	lay["message.decode_allocs"] = allocsPer(512, func() { message.Decode(frame) })
}

// pathMetrics reads the shared path rungs back from the tracer.
func (k *pathKit) pathMetrics(tr *tracer, lay layers) {
	for _, name := range []string{
		"selector.compile_cached", "selector.compile_cold", "selector.match",
		"profile.flat_snapshot", "profile.flat_rebuild",
		"message.encode", "message.decode", "message.wrap", "message.unwrap",
	} {
		lay[name+"_ns"] = tr.ns(name)
	}
	lay["transport.simnet_unicast_ns"] = tr.ns("transport.simnet_unicast")
	if n := len(k.dsts); n > 0 {
		lay["transport.simnet_multicast_ns_per_dst"] = tr.ns("transport.simnet_multicast") / float64(n)
	}
	if wraps := tr.counts["message.wrap"]; wraps > 0 {
		lay["message.fragments_per_msg"] = float64(tr.counts["message.datagrams"]) / float64(wraps)
	}
	if body := tr.counts["message.body_bytes"]; body > 0 {
		// Bytes one copy of a message puts on the wire per byte of body.
		lay["message.wire_overhead_ratio"] = float64(tr.counts["message.wire_bytes"]) / float64(body)
	}
}

// cloneManagers copies the flattenable content of the workload's live
// client profiles into fresh managers, so the ladder can mutate state
// without touching the system under test.
func cloneManagers(src []*profile.Manager) []*profile.Manager {
	out := make([]*profile.Manager, len(src))
	for i, pm := range src {
		snap := pm.Snapshot()
		out[i] = profile.NewManager(snap.ID)
		out[i].Update(func(p *profile.Profile) {
			p.Interests, p.Preferences = snap.Interests, snap.Preferences
			p.Capabilities, p.State = snap.Capabilities, snap.State
		})
	}
	return out
}
