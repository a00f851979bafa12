// Package transport holds the fixture's send path.
package transport

import "bytes"

type node struct{ sent [][]byte }

// Multicast copies the caller's buffer, then gives it: exempt.
func (n *node) Multicast(frame []byte) { n.Give(bytes.Clone(frame)) }

// Give sends a frame the caller hands over.
func (n *node) Give(frame []byte) { n.sent = append(n.sent, frame) }

// Relay copies outside Multicast and Unicast: the ownership rule flags it.
func (n *node) Relay(frame []byte) { n.Give(bytes.Clone(frame)) }
