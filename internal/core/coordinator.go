package core

import (
	"sync"

	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// Coordinator is an archiving peer in the multicast session: it
// records every event frame in order and answers history requests from
// late joiners by replaying the original frames over unicast.  The
// framework deliberately has no store-and-forward in the live path
// (collaboration is real-time); the archive is the paper's concession
// for late clients needing session history.
//
// Replayed frames are verbatim originals, so the late joiner's own
// semantic filtering still applies: it only absorbs the history its
// profile admits.
//
// Coordinator is a handler: the archive, reorder, replay and lock
// arbitration all live in the CoordinatorKernel, which transport.Serve
// feeds packets under mu.
type Coordinator struct {
	mu sync.Mutex // serializes every kernel call
	k  *CoordinatorKernel

	stop func() // ends transport.Serve's driving
}

// NewCoordinator attaches an archiving coordinator to the substrate.
// group describes the session being archived.  Its filter decides,
// once per sender, whether that sender's frames are archived: the
// filter is matched against a profile that carries only the sender's
// ID.  A rejected sender's frames are dropped unarchived.  Nothing else
// is enforced: the coordinator archives what the multicast group
// carries.
func NewCoordinator(conn transport.Conn, group session.Group) *Coordinator {
	c := &Coordinator{k: NewCoordinatorKernel(conn, group)}
	c.stop = transport.Serve(conn, 0, c.handle, nil)
	return c
}

// ArchivedEvents returns the number of archived events.
func (c *Coordinator) ArchivedEvents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.k.ArchivedEvents()
}

// Close detaches the coordinator and waits until nothing drives it.
func (c *Coordinator) Close() error {
	err := c.k.conn.Close()
	c.stop()
	return err
}

func (c *Coordinator) handle(pkt transport.Packet) {
	c.mu.Lock()
	c.k.HandlePacket(pkt)
	c.mu.Unlock()
}

// RequestHistory asks the coordinator to replay the whole session
// history it holds.  Replayed events arrive through the normal receive
// path, which puts each sender's frames in order, subject to this
// client's semantic filtering.
func (c *Client) RequestHistory(coordinator string) error {
	return c.k.requestHistory(coordinator)
}
