package snmp

import (
	"fmt"
	"net"
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
}

// NewAgent creates an agent serving the given MIB.
func NewAgent(mib *MIB) *Agent {
	return &Agent{mib: mib}
}

// HandleFrame decodes a request frame, processes it and returns the
// encoded response frame.  A nil response with nil error means the
// frame should be dropped silently (bad community, per RFC 1157).
func (a *Agent) HandleFrame(frame []byte) ([]byte, error) {
	req, err := DecodeMessage(frame)
	if err != nil {
		return nil, err
	}
	resp := a.Handle(req)
	if resp == nil {
		return nil, nil
	}
	return EncodeMessage(resp)
}

// Handle processes a request message and builds the response message,
// or nil when the request must be dropped (authentication failure or a
// PDU type an agent does not respond to).
func (a *Agent) Handle(req *Message) *Message {
	a.requests.Add(1)

	write := req.PDU.Type == SetRequest
	if !a.authorized(req.Community, write) {
		a.authFail.Add(1)
		return nil
	}

	resp := &Message{
		Version:   req.Version,
		Community: req.Community,
	}
	resp.PDU.Type = GetResponse
	resp.PDU.RequestID = req.PDU.RequestID

	switch req.PDU.Type {
	case GetRequest:
		a.handleGet(req, resp)
	case GetNextRequest:
		a.handleGetNext(req, resp)
	case GetBulkRequest:
		if req.Version == V1 {
			// GETBULK does not exist in v1.
			resp.PDU.ErrorStatus = GenErr
			resp.PDU.VarBinds = req.PDU.VarBinds
			return resp
		}
		a.handleGetBulk(req, resp)
	case SetRequest:
		a.handleSet(req, resp)
	default:
		return nil // agents do not answer responses/traps
	}
	return resp
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
		v, err := a.mib.Get(vb.OID)
		if err != nil {
			if req.Version == V1 {
				resp.PDU.ErrorStatus = NoSuchName
				resp.PDU.ErrorIndex = i + 1
				resp.PDU.VarBinds = req.PDU.VarBinds
				return
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: NoSuchInstance()})
			continue
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: v})
	}
}

func (a *Agent) handleGetNext(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		next, v, ok := a.mib.Next(vb.OID)
		if !ok {
			if req.Version == V1 {
				resp.PDU.ErrorStatus = NoSuchName
				resp.PDU.ErrorIndex = i + 1
				resp.PDU.VarBinds = req.PDU.VarBinds
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
		if _, err := a.mib.Get(vb.OID); err != nil {
			resp.PDU.ErrorStatus = statusForVersion(req.Version, NoSuchName)
			resp.PDU.ErrorIndex = i + 1
			resp.PDU.VarBinds = req.PDU.VarBinds
			return
		}
	}
	for i, vb := range req.PDU.VarBinds {
		if err := a.mib.Set(vb.OID, vb.Value); err != nil {
			switch {
			case req.Version == V1:
				resp.PDU.ErrorStatus = ReadOnly
			default:
				resp.PDU.ErrorStatus = NotWritable
			}
			resp.PDU.ErrorIndex = i + 1
			resp.PDU.VarBinds = req.PDU.VarBinds
			return
		}
	}
	resp.PDU.VarBinds = req.PDU.VarBinds
}

func statusForVersion(v Version, s ErrorStatus) ErrorStatus {
	return s // v1 and v2c share the subset we use for missing objects
}

// ServeUDP answers SNMP requests on the given UDP socket until the
// socket is closed.  Each request is handled synchronously (SNMP
// requests are tiny); errors on individual frames are counted and
// skipped.
func (a *Agent) ServeUDP(conn *net.UDPConn) error {
	buf := make([]byte, 64<<10)
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err // socket closed
		}
		resp, err := a.HandleFrame(buf[:n])
		if err != nil || resp == nil {
			continue
		}
		if _, err := conn.WriteToUDP(resp, peer); err != nil {
			return fmt.Errorf("snmp: agent reply: %w", err)
		}
	}
}
