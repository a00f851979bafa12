package snmp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
)

// RoundTripper transports one encoded SNMP request frame and appends
// the encoded response frame to dst, keeping neither slice.
// Implementations exist over UDP (UDPRoundTripper) and in-process
// against an Agent (AgentRoundTripper).
type RoundTripper interface {
	RoundTrip(dst, request []byte) (response []byte, err error)
}

// Client errors.
var (
	ErrTimeout    = errors.New("snmp: request timed out")
	ErrRequestID  = errors.New("snmp: response request-id mismatch")
	ErrPDUError   = errors.New("snmp: agent returned error status")
	ErrShortReply = errors.New("snmp: response varbind count mismatch")
)

// Client is an SNMP manager client: the component that runs on the
// management station and queries agents by OID.
type Client struct {
	// Transport performs the exchange.  Required.
	Transport RoundTripper
	// Version selects V1 or V2c (default V2c).
	Version Version
	// Community is the community string sent with every request.
	Community string

	reqID atomic.Int32

	// mu serializes exchanges over the buffers the client keeps between
	// them: a request's varbinds, its encoding and the response frame.
	mu  sync.Mutex
	vbs []VarBind
	out []byte
	in  []byte
}

// NewClient builds a client over a transport.
func NewClient(t RoundTripper, version Version, community string) *Client {
	c := &Client{Transport: t, Version: version, Community: community}
	c.reqID.Store(1)
	return c
}

// request sends one request of type typ for oids, each bound to NULL,
// and decodes the answer into resp.
func (c *Client) request(resp *Message, typ PDUType, nonRepeaters, maxRepetitions int, oids []OID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	vbs := c.vbs[:0]
	for _, o := range oids {
		vbs = append(vbs, VarBind{OID: o, Value: Null()})
	}
	err := c.exchange(PDU{Type: typ, ErrorStatus: ErrorStatus(nonRepeaters), ErrorIndex: maxRepetitions, VarBinds: vbs}, resp)
	clear(vbs) // keep none of the caller's OIDs
	c.vbs = vbs[:0]
	return err
}

// exchange sends pdu under a fresh request-id and decodes the answer
// into resp (c.mu held).  An error status in the answer is an error,
// with resp holding the answer.
func (c *Client) exchange(pdu PDU, resp *Message) error {
	pdu.RequestID = c.reqID.Add(1)
	req := Message{Version: c.Version, Community: c.Community, PDU: pdu}
	out, err := AppendMessage(c.out[:0], &req)
	if err != nil {
		return err
	}
	c.out = out
	in, err := c.Transport.RoundTrip(c.in[:0], out)
	if err != nil {
		return err
	}
	c.in = in
	if err := resp.Decode(in); err != nil {
		return err
	}
	if resp.PDU.RequestID != pdu.RequestID {
		return fmt.Errorf("%w: got %d, want %d", ErrRequestID, resp.PDU.RequestID, pdu.RequestID)
	}
	if resp.PDU.ErrorStatus != NoError {
		return fmt.Errorf("%w: %s (index %d)", ErrPDUError, resp.PDU.ErrorStatus, resp.PDU.ErrorIndex)
	}
	return nil
}

// Get fetches the values at the given OIDs.  The varbinds it returns
// are the caller's: no later call writes them.
func (c *Client) Get(oids ...OID) ([]VarBind, error) {
	var resp Message
	if err := c.GetInto(&resp, oids...); err != nil {
		return nil, err
	}
	return resp.PDU.VarBinds, nil
}

// GetInto fetches the values at the given OIDs into resp, whose
// storage it reuses: the answer's varbinds are resp.PDU.VarBinds, and
// the next GetInto (or Decode) into resp overwrites them.  Warm, it
// allocates nothing on the client's side.
func (c *Client) GetInto(resp *Message, oids ...OID) error {
	if err := c.request(resp, GetRequest, 0, 0, oids); err != nil {
		return err
	}
	if len(resp.PDU.VarBinds) != len(oids) {
		return ErrShortReply
	}
	return nil
}

// GetNext fetches the lexicographic successors of the given OIDs.
func (c *Client) GetNext(oids ...OID) ([]VarBind, error) {
	var resp Message
	if err := c.request(&resp, GetNextRequest, 0, 0, oids); err != nil {
		return nil, err
	}
	if len(resp.PDU.VarBinds) != len(oids) {
		return nil, ErrShortReply
	}
	return resp.PDU.VarBinds, nil
}

// Walk visits every instance under prefix via repeated GETNEXT.  Each
// varbind visited is the visitor's to keep.
func (c *Client) Walk(prefix OID, visit func(VarBind) bool) error {
	cur := prefix
	for {
		vbs, err := c.GetNext(cur)
		if err != nil {
			// v1 agents signal end-of-MIB with noSuchName.
			if c.Version == V1 && errors.Is(err, ErrPDUError) {
				return nil
			}
			return err
		}
		vb := vbs[0]
		if vb.Value.Type == TypeEndOfMibView || !vb.OID.HasPrefix(prefix) {
			return nil
		}
		if vb.OID.Compare(cur) <= 0 {
			return fmt.Errorf("snmp: agent OID did not advance at %s", vb.OID)
		}
		if !visit(vb) {
			return nil
		}
		cur = vb.OID
	}
}

// GetBulk issues a GETBULK (v2c only).
func (c *Client) GetBulk(nonRepeaters, maxRepetitions int, oids ...OID) ([]VarBind, error) {
	if c.Version == V1 {
		return nil, fmt.Errorf("snmp: GETBULK requires SNMPv2c")
	}
	var resp Message
	if err := c.request(&resp, GetBulkRequest, nonRepeaters, maxRepetitions, oids); err != nil {
		return nil, err
	}
	return resp.PDU.VarBinds, nil
}

// AgentRoundTripper wires a client directly to an in-process agent —
// the configuration used by the simulation experiments, where host
// instrumentation and inference engine live in one process.
type AgentRoundTripper struct {
	Agent *Agent
	// Drop, when non-nil, is consulted per request; returning true
	// simulates a lost datagram (the client sees a timeout).
	Drop func() bool
}

// RoundTrip implements RoundTripper: the agent answers straight into
// dst.
func (t *AgentRoundTripper) RoundTrip(dst, request []byte) ([]byte, error) {
	if t.Drop != nil && t.Drop() {
		return nil, ErrTimeout
	}
	resp, err := t.Agent.HandleFrame(dst, request)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, ErrTimeout // dropped (e.g. bad community) looks like a timeout
	}
	return resp, nil
}

// UDPRoundTripper exchanges SNMP frames over UDP with timeout and
// retries, as a management station would.
type UDPRoundTripper struct {
	// Addr is the agent's UDP address, e.g. "127.0.0.1:16161".
	Addr string
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of additional attempts (default 2).
	Retries int

	// mu serializes round trips over the socket and the datagram
	// buffer, both kept from one to the next.
	mu   sync.Mutex
	conn *net.UDPConn
	buf  []byte
}

func (t *UDPRoundTripper) dialLocked() (*net.UDPConn, error) {
	if t.conn != nil {
		return t.conn, nil
	}
	ua, err := net.ResolveUDPAddr("udp", t.Addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	t.conn = conn
	return conn, nil
}

// Close releases the socket, after any round trip in flight.
func (t *UDPRoundTripper) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn == nil {
		return nil
	}
	err := t.conn.Close()
	t.conn = nil
	return err
}

// RoundTrip implements RoundTripper.  The response datagram is read
// into the round tripper's own buffer and appended from there to dst.
func (t *UDPRoundTripper) RoundTrip(dst, request []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	conn, err := t.dialLocked()
	if err != nil {
		return nil, err
	}
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	attempts := t.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	if t.buf == nil {
		t.buf = make([]byte, 64<<10)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if _, err := conn.Write(request); err != nil {
			lastErr = err
			continue
		}
		if err := conn.SetReadDeadline(clock.Wall.Now().Add(timeout)); err != nil {
			return nil, err
		}
		n, err := conn.Read(t.buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				lastErr = ErrTimeout
				continue
			}
			lastErr = err
			continue
		}
		return append(dst, t.buf[:n]...), nil
	}
	return nil, lastErr
}
