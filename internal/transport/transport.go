// Package transport provides the communication substrate beneath the
// messaging layer: a multicast-with-unicast abstraction, a simulated
// network with configurable per-link bandwidth, propagation delay,
// jitter, loss and duplication (used by the experiments for
// reproducibility), and a real UDP implementation for running the
// framework across processes.
//
// The model follows the paper: clients join a multicast session;
// multicast carries session traffic to every peer, while unicast is
// used on the wireless leg between a base station and its clients.
package transport

import (
	"errors"
	"time"
)

// Packet is a received frame.
type Packet struct {
	// From is the sender's node ID.
	From string
	// Data is the frame payload.  It is immutable and may be retained:
	// no substrate writes to it or reuses it after delivery (the
	// simulated networks make one private copy per send, shared
	// read-only by every recipient; UDP copies each datagram out of its
	// read buffer).  Receivers rely on this — a message.View parked
	// behind a sequence gap aliases it — and must not write to it
	// themselves.
	Data []byte
	// Unicast reports whether the frame was addressed to this node
	// specifically rather than to the multicast group.
	Unicast bool
	// At is the delivery time.
	At time.Time
}

// Conn is one node's attachment to the communication substrate.
type Conn interface {
	// ID returns the node's identifier on the substrate.
	ID() string
	// Multicast sends the frame to every other node in the group.
	Multicast(frame []byte) error
	// Unicast sends the frame to one node.
	Unicast(to string, frame []byte) error
	// Recv returns the channel of inbound packets.  It is closed when
	// the connection closes.
	Recv() <-chan Packet
	// Close detaches the node.  Safe to call more than once.
	Close() error
}

// Substrate-level errors.
var (
	ErrClosed      = errors.New("transport: connection closed")
	ErrUnknownNode = errors.New("transport: unknown destination node")
	ErrDuplicateID = errors.New("transport: node ID already attached")
	ErrFrameSize   = errors.New("transport: frame exceeds substrate MTU")
)

// Stats counts substrate-level events for a node.
type Stats struct {
	Sent      uint64 // frames passed to Send (multicast counts once)
	Delivered uint64 // frames delivered into this node's inbox
	Dropped   uint64 // frames lost on links toward this node
	Overflow  uint64 // frames dropped because this node's inbox was full
	Bytes     uint64 // payload bytes delivered to this node
}
