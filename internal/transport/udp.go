package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"adaptiveqos/internal/clock"
)

// UDPTransport runs the substrate over real UDP sockets.  "Multicast"
// is implemented as unicast fan-out to a registered peer set, which
// gives multicast semantics on networks (and containers) where IGMP
// group membership is unavailable; the base station and examples use
// it across loopback.
//
// Each datagram carries a small header naming the logical sender and a
// unicast flag, so receivers see the same Packet shape as on SimNet.
type UDPTransport struct {
	mu    sync.Mutex
	peers map[string]*net.UDPAddr
}

// NewUDPTransport returns an empty transport with no peers.
func NewUDPTransport() *UDPTransport {
	return &UDPTransport{peers: make(map[string]*net.UDPAddr)}
}

// AddPeer registers (or updates) the address for a peer ID.
func (t *UDPTransport) AddPeer(id string, addr *net.UDPAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
}

// RemovePeer forgets a peer.
func (t *UDPTransport) RemovePeer(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.peers, id)
}

// Listen opens a UDP socket bound to addr (e.g. "127.0.0.1:0") for the
// node id and registers its own address as a peer so other nodes added
// to the same UDPTransport value can reach it.
func (t *UDPTransport) Listen(id, addr string) (Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	c := &udpConn{t: t, id: id, sock: sock, done: make(chan struct{})}
	c.box = &mailbox{mu: &c.mu, depth: 1024, wake: make(chan struct{}, 1)}
	t.AddPeer(id, sock.LocalAddr().(*net.UDPAddr))
	go c.readLoop()
	return c, nil
}

// udpConn is a node's UDP attachment.
type udpConn struct {
	t    *UDPTransport
	id   string
	sock *net.UDPConn
	mu   sync.Mutex // guards box, whose closed is the conn's
	box  *mailbox
	done chan struct{}
}

func (c *udpConn) closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.box.closed
}

// Datagram header: senderLen uint16 | sender | flags uint8 (bit0 = unicast).
func encodeDatagram(sender string, unicast bool, frame []byte) []byte {
	buf := make([]byte, 0, 3+len(sender)+len(frame))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(sender)))
	buf = append(buf, sender...)
	var flags byte
	if unicast {
		flags = 1
	}
	buf = append(buf, flags)
	return append(buf, frame...)
}

func decodeDatagram(dgram []byte) (sender string, unicast bool, frame []byte, ok bool) {
	if len(dgram) < 3 {
		return "", false, nil, false
	}
	n := int(binary.BigEndian.Uint16(dgram))
	if len(dgram) < 2+n+1 {
		return "", false, nil, false
	}
	sender = string(dgram[2 : 2+n])
	unicast = dgram[2+n]&1 != 0
	frame = dgram[2+n+1:]
	return sender, unicast, frame, true
}

// ID implements Conn.
func (c *udpConn) ID() string { return c.id }

// Clock implements Conn: real sockets run on the wall clock.
func (c *udpConn) Clock() clock.Clock { return clock.Wall }

// Recv implements Conn.
func (c *udpConn) Recv() <-chan Packet { return c.box.recv() }

func (c *udpConn) mailbox() *mailbox { return c.box }

// Multicast implements Conn.
func (c *udpConn) Multicast(frame []byte) error {
	if c.closed() {
		return ErrClosed
	}
	dgram := encodeDatagram(c.id, false, frame)

	c.t.mu.Lock()
	addrs := make([]*net.UDPAddr, 0, len(c.t.peers))
	for id, a := range c.t.peers {
		if id != c.id {
			addrs = append(addrs, a)
		}
	}
	c.t.mu.Unlock()

	var firstErr error
	for _, a := range addrs {
		if _, err := c.sock.WriteToUDP(dgram, a); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Unicast implements Conn.
func (c *udpConn) Unicast(to string, frame []byte) error {
	if c.closed() {
		return ErrClosed
	}

	c.t.mu.Lock()
	addr, ok := c.t.peers[to]
	c.t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	_, err := c.sock.WriteToUDP(encodeDatagram(c.id, true, frame), addr)
	return err
}

// Give implements Conn.  The copying calls already encode frame into a
// datagram of their own and write it before returning, so a frozen
// frame takes the same path.
func (c *udpConn) Give(to string, frame []byte) error {
	if to == "" {
		return c.Multicast(frame)
	}
	return c.Unicast(to, frame)
}

// Close implements Conn.
func (c *udpConn) Close() error {
	c.mu.Lock()
	if c.box.closed {
		c.mu.Unlock()
		return nil
	}
	c.box.closeLocked()
	c.mu.Unlock()

	c.t.RemovePeer(c.id)
	err := c.sock.Close()
	<-c.done // wait for readLoop to finish
	return err
}

func (c *udpConn) readLoop() {
	defer close(c.done)
	buf := make([]byte, 64<<10)
	for {
		n, _, err := c.sock.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		sender, unicast, frame, ok := decodeDatagram(buf[:n])
		if !ok || sender == c.id {
			continue
		}
		p := Packet{
			From:    sender,
			Data:    append([]byte(nil), frame...),
			Unicast: unicast,
			At:      clock.Wall.Now(),
		}
		c.mu.Lock()
		c.box.putLocked(p) // a full or closed inbox drops it, as UDP would
		c.mu.Unlock()
	}
}
