package dispatch

import (
	"fmt"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/transport"
)

// Deliverer is the transmit adapter interface: it moves one framework
// message to a destination.  The base station's wired multicast and
// per-client wireless unicast paths, the core client's session sends
// and test doubles all implement it, so relay code programs against one
// seam regardless of segment.
//
// Deliver must not keep m, m's attributes or m.Body once it returns:
// the adapters envelope m before returning, so a sender may rewrite one
// message, its attributes and its body for its next frame (the base
// station's tier forwarding does, and the core client publishes every
// chat line, stroke and image packet from scratch it reuses).
type Deliverer interface {
	Deliver(to string, m *message.Message) error
}

// Multicaster is the wired-segment transmit adapter: it envelopes the
// message (fragmenting to the MTU, reusing pooled encode buffers) and
// multicasts every datagram to the session.  The destination argument
// is ignored — multicast has no single addressee.  The datagrams are
// the enveloper's fresh buffers and nobody writes them again, so they
// are given to the substrate, not copied into it.
type Multicaster struct {
	Env  *message.Enveloper
	Conn transport.Conn
}

// stackDatagrams is how many datagrams an adapter's list holds on the
// stack: enough for a whole message and for a fragmented one the size
// of an image packet.
const stackDatagrams = 16

// Deliver envelopes m and multicasts its datagrams.  The datagram list
// of a message of up to stackDatagrams datagrams lives on the stack.
func (mc *Multicaster) Deliver(_ string, m *message.Message) error {
	var stack [stackDatagrams][]byte
	datagrams, err := mc.Env.AppendWrapMessage(stack[:0], m)
	if err != nil {
		return err
	}
	for _, d := range datagrams {
		if err := mc.Conn.Give("", d); err != nil {
			return err
		}
	}
	return nil
}

// Unicaster is the per-client transmit adapter: it envelopes the
// message and unicasts every datagram to the addressed peer.
type Unicaster struct {
	Env  *message.Enveloper
	Conn transport.Conn
}

// Deliver envelopes m and unicasts its datagrams to to, the list on the
// stack as Multicaster.Deliver's is.
func (uc *Unicaster) Deliver(to string, m *message.Message) error {
	var stack [stackDatagrams][]byte
	datagrams, err := uc.Env.AppendWrapMessage(stack[:0], m)
	if err != nil {
		return err
	}
	return uc.Send(to, datagrams)
}

// Send unicasts datagrams that are already enveloped — and frozen: they
// are given to the substrate as they are, so the same set may be sent
// to any number of peers and must never be written again.
func (uc *Unicaster) Send(to string, datagrams [][]byte) error {
	if to == "" {
		// Conn.Give reads "" as the whole group; a peer ID off the wire
		// must never turn a unicast into a multicast.
		return fmt.Errorf("%w: %q", transport.ErrUnknownNode, to)
	}
	for _, d := range datagrams {
		if err := uc.Conn.Give(to, d); err != nil {
			return err
		}
	}
	return nil
}

// Fanout is one message on its way to many peers through a Unicaster.
// The datagrams are the same bytes whoever they go to, so the message
// is enveloped once — on the first Deliver, so a message no peer turns
// out to be admitted to is never encoded — and every addressee is
// given that one set: one buffer per datagram, however many peers.  One
// goroutine delivers it at a time.
type Fanout struct {
	uc        *Unicaster
	m         *message.Message
	wrapped   bool
	datagrams [][]byte
	err       error
}

// Fanout prepares m for delivery to any number of peers.
func (uc *Unicaster) Fanout(m *message.Message) *Fanout {
	return &Fanout{uc: uc, m: m}
}

// Reset readies f to carry m, keeping the storage of its datagram list:
// a relay that fans out one message at a time keeps one Fanout for all
// of them.
func (f *Fanout) Reset(m *message.Message) {
	f.m, f.wrapped, f.err, f.datagrams = m, false, nil, f.datagrams[:0]
}

// Deliver unicasts the message's datagrams to to, as Unicaster.Deliver
// would.
func (f *Fanout) Deliver(to string) error {
	if !f.wrapped {
		f.wrapped = true
		f.datagrams, f.err = f.uc.Env.AppendWrapMessage(f.datagrams[:0], f.m)
	}
	if f.err != nil {
		return f.err
	}
	return f.uc.Send(to, f.datagrams)
}
