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

	"adaptiveqos/internal/clock"
)

// Packet is a received frame.
type Packet struct {
	// From is the sender's node ID.
	From string
	// Data is the frame payload.  It is immutable and may be retained:
	// no substrate writes to it or reuses it after delivery.  On the
	// simulated networks it is the very slice the sender gave (Give) or
	// the one clone the copying calls made of theirs, shared read-only
	// by every recipient of the send; UDP copies each datagram out of
	// its read buffer.  Receivers rely on this — a parked message.View,
	// a delivered Message.Body, a collected image chunk and an archived
	// frame all alias it — and must not write to it themselves
	// (DESIGN.md §7.1 has the hand-off table).
	Data []byte
	// Unicast reports whether the frame was addressed to this node
	// specifically rather than to the multicast group.
	Unicast bool
	// At is the delivery time.
	At time.Time
}

// Conn is one node's attachment to the communication substrate.
//
// There are two send contracts.  Multicast and Unicast leave frame with
// the caller, who may overwrite it as soon as the call returns; they
// pay one copy for that.  Give takes the frame over: the bytes must
// never change again, the substrate delivers them as they are, and one
// buffer serves every recipient of every Give of it.  A sender that has
// just built a datagram nobody else writes — an Enveloper's output, an
// archived frame — gives it.
//
// A conn also carries its substrate's clock, and a node built on it
// reads time from there and nowhere else, so what it stamps and what
// its network hands it (Packet.At, Serve's polls) are on one clock.
type Conn interface {
	// ID returns the node's identifier on the substrate.
	ID() string
	// Clock returns the substrate's clock: a DESNet's *clock.Virtual,
	// or clock.Wall on SimNet and UDP.
	Clock() clock.Clock
	// Multicast sends a copy of the frame to every other node in the
	// group.
	Multicast(frame []byte) error
	// Unicast sends a copy of the frame to one node.
	Unicast(to string, frame []byte) error
	// Give sends a frozen frame — to one node, or with to == "" to
	// every other node in the group — without copying it.  The caller
	// may keep reading frame and may give it again; nobody may write
	// to it.
	Give(to string, frame []byte) error
	// Recv returns the channel of inbound packets, made by the first
	// call with those that arrived before.  It is closed when the
	// connection closes.  Serve's nodes are not read through Recv.
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
