package snmp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Agent serves SNMP requests against a MIB.  It implements the agent
// component of the system/network state interface: the manager runs on
// the management station; the agent runs on the network element or
// host to be monitored and is serviced by instrumentation routines.
type Agent struct {
	mib *MIB
	// ReadCommunity authorizes GET/GETNEXT/GETBULK; empty allows any.
	ReadCommunity string
	// WriteCommunity authorizes SET; empty allows any.
	WriteCommunity string
	// MaxRepetitions caps GETBULK repetition counts (default 64).
	MaxRepetitions int

	requests atomic.Uint64
	authFail atomic.Uint64

	// mu serializes frames over the request and response the agent
	// decodes into and answers from, kept from one frame to the next.
	// It is held while instrumentation routines run, so a routine must
	// not send to its own agent.  (A sync.Pool would not keep them
	// across polls: a host is polled once a second, and a pool drops
	// what two GC cycles in a row found unused.)
	mu        sync.Mutex
	req, resp Message
}

// NewAgent creates an agent serving the given MIB.
func NewAgent(mib *MIB) *Agent {
	return &Agent{mib: mib}
}

// HandleFrame decodes a request frame, processes it and appends the
// encoded response frame to dst.  A nil response with nil error means
// the frame should be dropped silently (bad community, per RFC 1157).
// It keeps neither slice, and answers a GET of registered instances
// without allocating.
func (a *Agent) HandleFrame(dst, frame []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.req.Decode(frame); err != nil {
		return nil, err
	}
	if !a.handle(&a.req, &a.resp) {
		return nil, nil
	}
	out, err := AppendMessage(dst, &a.resp)
	clear(a.resp.PDU.VarBinds) // hold no value or request OID past the frame
	return out, err
}

// handle processes a request message and builds the response message
// in resp, reusing its varbind list; it reports false when the request
// must be dropped (authentication failure or a PDU type an agent does
// not respond to).
func (a *Agent) handle(req, resp *Message) bool {
	a.requests.Add(1)

	write := req.PDU.Type == SetRequest
	if !a.authorized(req.Community, write) {
		a.authFail.Add(1)
		return false
	}

	resp.Version, resp.Community = req.Version, req.Community
	resp.PDU = PDU{Type: GetResponse, RequestID: req.PDU.RequestID, VarBinds: resp.PDU.VarBinds[:0]}

	switch req.PDU.Type {
	case GetRequest:
		a.handleGet(req, resp)
	case GetNextRequest:
		a.handleGetNext(req, resp)
	case GetBulkRequest:
		if req.Version == V1 {
			// GETBULK does not exist in v1.
			echo(req, resp, GenErr, 0)
			return true
		}
		a.handleGetBulk(req, resp)
	case SetRequest:
		a.handleSet(req, resp)
	default:
		return false // agents do not answer responses/traps
	}
	return true
}

// echo answers with a status and the request's varbinds, copied
// into the response's own list.
func echo(req, resp *Message, status ErrorStatus, index int) {
	resp.PDU.ErrorStatus, resp.PDU.ErrorIndex = status, index
	resp.PDU.VarBinds = append(resp.PDU.VarBinds[:0], req.PDU.VarBinds...)
}

func (a *Agent) authorized(community string, write bool) bool {
	want := a.ReadCommunity
	if write {
		want = a.WriteCommunity
	}
	return want == "" || community == want
}

func (a *Agent) handleGet(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		obj, ok := a.mib.lookup(vb.OID)
		if !ok {
			if req.Version == V1 {
				echo(req, resp, NoSuchName, i+1)
				return
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: NoSuchInstance()})
			continue
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: obj.Get()})
	}
}

func (a *Agent) handleGetNext(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		next, v, ok := a.mib.Next(vb.OID)
		if !ok {
			if req.Version == V1 {
				echo(req, resp, NoSuchName, i+1)
				return
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: EndOfMibView()})
			continue
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
	}
}

func (a *Agent) handleGetBulk(req, resp *Message) {
	nonRep := req.PDU.NonRepeaters()
	if nonRep < 0 {
		nonRep = 0
	}
	if nonRep > len(req.PDU.VarBinds) {
		nonRep = len(req.PDU.VarBinds)
	}
	maxRep := req.PDU.MaxRepetitions()
	cap := a.MaxRepetitions
	if cap <= 0 {
		cap = 64
	}
	if maxRep < 0 {
		maxRep = 0
	}
	if maxRep > cap {
		maxRep = cap
	}

	// Non-repeaters: like GETNEXT.
	for _, vb := range req.PDU.VarBinds[:nonRep] {
		next, v, ok := a.mib.Next(vb.OID)
		if !ok {
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: EndOfMibView()})
			continue
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
	}
	// Repeaters: up to maxRep successors each.
	for _, vb := range req.PDU.VarBinds[nonRep:] {
		cur := vb.OID
		for r := 0; r < maxRep; r++ {
			next, v, ok := a.mib.Next(cur)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: cur, Value: EndOfMibView()})
				break
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: next, Value: v})
			cur = next
		}
	}
}

func (a *Agent) handleSet(req, resp *Message) {
	// Two-phase per RFC: validate everything, then commit.
	for i, vb := range req.PDU.VarBinds {
		if _, ok := a.mib.lookup(vb.OID); !ok {
			echo(req, resp, NoSuchName, i+1) // v1 and v2c alike
			return
		}
	}
	for i, vb := range req.PDU.VarBinds {
		if err := a.mib.Set(vb.OID, vb.Value); err != nil {
			status := NotWritable
			if req.Version == V1 {
				status = ReadOnly
			}
			echo(req, resp, status, i+1)
			return
		}
	}
	echo(req, resp, NoError, 0)
}

// ServeUDP answers SNMP requests on the given UDP socket until the
// socket is closed.  Each request is handled synchronously (SNMP
// requests are tiny); errors on individual frames are counted and
// skipped.
func (a *Agent) ServeUDP(conn *net.UDPConn) error {
	buf := make([]byte, 64<<10)
	var out []byte
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err // socket closed
		}
		resp, err := a.HandleFrame(out[:0], buf[:n])
		if err != nil || resp == nil {
			continue
		}
		out = resp
		if _, err := conn.WriteToUDP(resp, peer); err != nil {
			return fmt.Errorf("snmp: agent reply: %w", err)
		}
	}
}
