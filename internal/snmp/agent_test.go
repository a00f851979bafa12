package snmp

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// testMIB builds a small MIB with a writable scalar.
func testMIB(t *testing.T) (*MIB, *atomic.Int64) {
	t.Helper()
	mib := NewMIB()
	var writable atomic.Int64

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(mib.RegisterScalar(MustOID("1.3.6.1.2.1.1.1"), func() Value { return String8("sim host") }))
	must(mib.RegisterScalar(MustOID("1.3.6.1.2.1.1.3"), func() Value { return TimeTicks(4711) }))
	must(mib.RegisterScalar(MustOID("1.3.6.1.4.1.9999.1.1"), func() Value { return Gauge32(55) }))   // cpu load
	must(mib.RegisterScalar(MustOID("1.3.6.1.4.1.9999.1.2"), func() Value { return Counter32(30) })) // page faults
	must(mib.Register(MustOID("1.3.6.1.4.1.9999.1.3.0"), Object{
		Get: func() Value { return Integer(writable.Load()) },
		Set: func(v Value) error {
			if v.Type != TypeInteger {
				return ErrBadValue
			}
			writable.Store(v.Int)
			return nil
		},
	}))
	return mib, &writable
}

func TestMIBBasics(t *testing.T) {
	mib, _ := testMIB(t)
	if len(mib.objects) != 5 {
		t.Fatalf("%d objects", len(mib.objects))
	}
	v, err := mib.Get(MustOID("1.3.6.1.2.1.1.1.0"))
	if err != nil || string(v.Bytes) != "sim host" {
		t.Errorf("Get: %v %v", v, err)
	}
	if _, err := mib.Get(MustOID("1.3.6.1.2.1.1.1")); !errors.Is(err, ErrNoObject) {
		t.Errorf("Get without instance: %v", err)
	}
	if err := mib.Set(MustOID("1.3.6.1.2.1.1.1.0"), Integer(1)); !errors.Is(err, ErrNotWritable) {
		t.Errorf("Set read-only: %v", err)
	}
	if err := mib.Set(MustOID("1.3.9.9"), Integer(1)); !errors.Is(err, ErrNoObject) {
		t.Errorf("Set missing: %v", err)
	}
	if err := mib.Register(MustOID("1.3.6.1"), Object{}); err == nil {
		t.Error("Register without Get should fail")
	}

	// Next walks in lexicographic order.
	next, _, ok := mib.Next(MustOID("1.3.6.1.2.1.1.1.0"))
	if !ok || next.String() != "1.3.6.1.2.1.1.3.0" {
		t.Errorf("Next = %v (%v)", next, ok)
	}
	// From a non-registered point: first entry after it.
	next, _, ok = mib.Next(MustOID("1.3"))
	if !ok || next.String() != "1.3.6.1.2.1.1.1.0" {
		t.Errorf("Next(1.3) = %v", next)
	}
	// Past the end.
	if _, _, ok := mib.Next(MustOID("1.3.7")); ok {
		t.Error("Next past end should report !ok")
	}
}

func roundTrip(t *testing.T, a *Agent, req *Message) *Message {
	t.Helper()
	frame, err := EncodeMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := a.HandleFrame(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if respFrame == nil {
		return nil
	}
	resp, err := DecodeMessage(respFrame)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAgentGetV2c(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)

	resp := roundTrip(t, a, &Message{Version: V2c, Community: "any", PDU: PDU{
		Type: GetRequest, RequestID: 7,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.4.1.9999.1.1.0"), Value: Null()},
			{OID: MustOID("1.3.6.1.4.1.9999.9.9.0"), Value: Null()}, // missing
		},
	}})
	if resp.PDU.Type != GetResponse || resp.PDU.RequestID != 7 || resp.PDU.ErrorStatus != NoError {
		t.Fatalf("response header: %+v", resp.PDU)
	}
	if resp.PDU.VarBinds[0].Value.Uint != 55 {
		t.Errorf("cpu value: %v", resp.PDU.VarBinds[0].Value)
	}
	if resp.PDU.VarBinds[1].Value.Type != TypeNoSuchInstance {
		t.Errorf("missing object: %v", resp.PDU.VarBinds[1].Value)
	}
	if n := a.requests.Load(); n != 1 {
		t.Errorf("requests = %d", n)
	}
}

func TestAgentGetV1NoSuchName(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)
	resp := roundTrip(t, a, &Message{Version: V1, PDU: PDU{
		Type: GetRequest, RequestID: 3,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Null()},
			{OID: MustOID("1.3.9.9"), Value: Null()},
		},
	}})
	if resp.PDU.ErrorStatus != NoSuchName || resp.PDU.ErrorIndex != 2 {
		t.Errorf("v1 error semantics: %+v", resp.PDU)
	}
	// v1 echoes the request varbinds on error.
	if len(resp.PDU.VarBinds) != 2 {
		t.Errorf("v1 error varbinds: %d", len(resp.PDU.VarBinds))
	}
}

func TestAgentGetNextAndWalkOrder(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)

	resp := roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: GetNextRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: MustOID("1.3"), Value: Null()}},
	}})
	if got := resp.PDU.VarBinds[0].OID.String(); got != "1.3.6.1.2.1.1.1.0" {
		t.Errorf("first getnext = %s", got)
	}

	// Walking past the last object yields endOfMibView in v2c.
	resp = roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: GetNextRequest, RequestID: 2,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Null()}},
	}})
	if resp.PDU.VarBinds[0].Value.Type != TypeEndOfMibView {
		t.Errorf("end of mib: %v", resp.PDU.VarBinds[0].Value)
	}

	// ... and noSuchName in v1.
	resp = roundTrip(t, a, &Message{Version: V1, PDU: PDU{
		Type: GetNextRequest, RequestID: 3,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Null()}},
	}})
	if resp.PDU.ErrorStatus != NoSuchName {
		t.Errorf("v1 end of mib: %+v", resp.PDU)
	}
}

func TestAgentGetBulk(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)

	resp := roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: GetBulkRequest, RequestID: 5,
		ErrorStatus: 1, // non-repeaters
		ErrorIndex:  3, // max-repetitions
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.2.1.1"), Value: Null()},    // non-repeater
			{OID: MustOID("1.3.6.1.4.1.9999"), Value: Null()}, // repeater
		},
	}})
	// 1 non-repeater + up to 3 repetitions.
	if len(resp.PDU.VarBinds) != 4 {
		t.Fatalf("bulk varbinds = %d: %v", len(resp.PDU.VarBinds), resp.PDU.VarBinds)
	}
	if resp.PDU.VarBinds[0].OID.String() != "1.3.6.1.2.1.1.1.0" {
		t.Errorf("non-repeater: %s", resp.PDU.VarBinds[0].OID)
	}
	if resp.PDU.VarBinds[3].OID.String() != "1.3.6.1.4.1.9999.1.3.0" {
		t.Errorf("last repeater: %s", resp.PDU.VarBinds[3].OID)
	}

	// GETBULK on v1 is an error.
	resp = roundTrip(t, a, &Message{Version: V1, PDU: PDU{
		Type: GetBulkRequest, RequestID: 6,
		VarBinds: []VarBind{{OID: MustOID("1.3"), Value: Null()}},
	}})
	if resp.PDU.ErrorStatus != GenErr {
		t.Errorf("v1 getbulk: %+v", resp.PDU)
	}

	// Repetitions hitting the end emit endOfMibView and stop.
	resp = roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: GetBulkRequest, RequestID: 7,
		ErrorIndex: 100,
		VarBinds:   []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3"), Value: Null()}},
	}})
	last := resp.PDU.VarBinds[len(resp.PDU.VarBinds)-1]
	if last.Value.Type != TypeEndOfMibView {
		t.Errorf("bulk at end: %v", last.Value)
	}
}

func TestAgentSet(t *testing.T) {
	mib, writable := testMIB(t)
	a := NewAgent(mib)

	resp := roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: SetRequest, RequestID: 9,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Integer(1234)}},
	}})
	if resp.PDU.ErrorStatus != NoError {
		t.Fatalf("set: %+v", resp.PDU)
	}
	if writable.Load() != 1234 {
		t.Errorf("set did not apply: %d", writable.Load())
	}

	// Setting a read-only object: v2c notWritable, v1 readOnly.
	resp = roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: SetRequest, RequestID: 10,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Integer(1)}},
	}})
	if resp.PDU.ErrorStatus != NotWritable || resp.PDU.ErrorIndex != 1 {
		t.Errorf("v2c set read-only: %+v", resp.PDU)
	}
	resp = roundTrip(t, a, &Message{Version: V1, PDU: PDU{
		Type: SetRequest, RequestID: 11,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Integer(1)}},
	}})
	if resp.PDU.ErrorStatus != ReadOnly {
		t.Errorf("v1 set read-only: %+v", resp.PDU)
	}

	// Two-phase: if any OID is missing nothing commits.
	before := writable.Load()
	resp = roundTrip(t, a, &Message{Version: V2c, PDU: PDU{
		Type: SetRequest, RequestID: 12,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Integer(777)},
			{OID: MustOID("1.3.9.9.9"), Value: Integer(1)},
		},
	}})
	if resp.PDU.ErrorStatus == NoError {
		t.Error("set with missing OID must fail")
	}
	if writable.Load() != before {
		t.Error("failed set leaked a partial write")
	}
}

func TestAgentCommunityAuth(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)
	a.ReadCommunity = "public"
	a.WriteCommunity = "private"

	// Wrong read community: dropped silently.
	resp := roundTrip(t, a, &Message{Version: V2c, Community: "wrong", PDU: PDU{
		Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Null()}},
	}})
	if resp != nil {
		t.Error("bad community should be dropped")
	}
	if n := a.authFail.Load(); n != 1 {
		t.Errorf("auth failures = %d", n)
	}

	// Read community cannot write.
	resp = roundTrip(t, a, &Message{Version: V2c, Community: "public", PDU: PDU{
		Type: SetRequest, RequestID: 2,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Integer(5)}},
	}})
	if resp != nil {
		t.Error("read community must not authorize SET")
	}

	// Correct communities work.
	resp = roundTrip(t, a, &Message{Version: V2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 3,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: Null()}},
	}})
	if resp == nil || resp.PDU.ErrorStatus != NoError {
		t.Error("good read community rejected")
	}
	resp = roundTrip(t, a, &Message{Version: V2c, Community: "private", PDU: PDU{
		Type: SetRequest, RequestID: 4,
		VarBinds: []VarBind{{OID: MustOID("1.3.6.1.4.1.9999.1.3.0"), Value: Integer(5)}},
	}})
	if resp == nil || resp.PDU.ErrorStatus != NoError {
		t.Error("good write community rejected")
	}
}

func TestAgentIgnoresNonRequests(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)
	resp := roundTrip(t, a, &Message{Version: V2c, PDU: PDU{Type: GetResponse, RequestID: 1}})
	if resp != nil {
		t.Error("agent must not answer a response PDU")
	}
	if _, err := a.HandleFrame(nil, []byte("garbage")); err == nil {
		t.Error("garbage frame should error")
	}
}

func TestAgentOverUDP(t *testing.T) {
	mib, _ := testMIB(t)
	a := NewAgent(mib)
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.ServeUDP(sock)
	}()

	rt := &UDPRoundTripper{Addr: sock.LocalAddr().String(), Timeout: time.Second, Retries: 1}
	defer rt.Close()
	client := NewClient(rt, V2c, "any")

	v, err := getOne(client, MustOID("1.3.6.1.4.1.9999.1.1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint != 55 {
		t.Errorf("cpu over UDP = %v", v)
	}

	var walked int
	if err := client.Walk(MustOID("1.3.6.1"), func(vb VarBind) bool {
		walked++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if walked != 5 {
		t.Errorf("walk over UDP visited %d", walked)
	}

	sock.Close()
	<-done
}

func TestUDPRoundTripperTimeout(t *testing.T) {
	// A socket nobody answers on.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()

	rt := &UDPRoundTripper{Addr: dead.LocalAddr().String(), Timeout: 50 * time.Millisecond, Retries: 1}
	defer rt.Close()
	client := NewClient(rt, V2c, "any")
	start := time.Now()
	_, err = getOne(client, MustOID("1.3.6.1.2.1.1.1.0"))
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("expected timeout, got %v", err)
	}
	if e := time.Since(start); e < 90*time.Millisecond {
		t.Errorf("retries too fast: %v", e)
	}
}
