package snmp_test

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/snmp"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames.golden from this build's codec and agent")

// TestFramesGolden pins the BER bytes of every frame the package
// writes.  testdata/frames.golden holds EncodeMessage's output for each
// FuzzDecodeMessage seed that decodes and for a message carrying one of
// every value type, and the host agent's requests and answers for a
// GET, GETNEXT, GETBULK, SET, a v1 GET of a missing object and a
// request under a wrong community.  Every line must come out byte for
// byte the same.  Regenerate, when the wire format is meant to move,
// with
//
//	go test -run TestFramesGolden ./internal/snmp -update
func TestFramesGolden(t *testing.T) {
	var got strings.Builder
	seeds, err := filepath.Glob("testdata/fuzz/FuzzDecodeMessage/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range seeds {
		frame := readSeed(t, path)
		name := filepath.Base(path)
		m, err := snmp.DecodeMessage(frame)
		if err != nil {
			fmt.Fprintf(&got, "seed %s refused\n", name)
			continue
		}
		out, err := snmp.EncodeMessage(m)
		if err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
		fmt.Fprintf(&got, "seed %s %s\n", name, hex.EncodeToString(out))
	}

	every := &snmp.Message{Version: snmp.V2c, Community: strings.Repeat("c", 130), PDU: snmp.PDU{
		Type: snmp.GetResponse, RequestID: math.MinInt32, ErrorStatus: snmp.GenErr, ErrorIndex: 300,
		VarBinds: []snmp.VarBind{
			{OID: snmp.MustOID("0.39"), Value: snmp.Null()},
			{OID: snmp.MustOID("1.3.6.1.2.1.1.1.0"), Value: snmp.String8("adaptiveqos simulated host")},
			{OID: snmp.MustOID("2.999.127.128.16383.16384.4294967295"), Value: snmp.Integer(-129)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.7.0"), Value: snmp.Integer(math.MinInt64)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.7.0"), Value: snmp.Integer(math.MaxInt64)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.7.0"), Value: snmp.Integer(128)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.7.0"), Value: snmp.Integer(0)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.7.0"), Value: snmp.Integer(-1)},
			{OID: snmp.MustOID("1.3.6.1.2.1.1.2.0"), Value: snmp.ObjectIdentifier(snmp.MustOID("1.3.6.1.4.1.54321"))},
			{OID: snmp.MustOID("1.3.6.1.2.1.4.20.1.1.0"), Value: snmp.IPAddress(netip.MustParseAddr("192.0.2.7"))},
			{OID: snmp.MustOID("1.3.6.1.2.1.2.2.1.10.1"), Value: snmp.Counter32(math.MaxUint32)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.1.0"), Value: snmp.Gauge32(0)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.1.2.0"), Value: snmp.Gauge32(128)},
			{OID: snmp.MustOID("1.3.6.1.2.1.1.3.0"), Value: snmp.TimeTicks(4711)},
			{OID: snmp.MustOID("1.3.6.1.2.1.31.1.1.1.6.1"), Value: snmp.Counter64(math.MaxUint64)},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.9.0"), Value: snmp.Value{Type: snmp.TypeOpaque, Bytes: make([]byte, 200)}},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.9.1"), Value: snmp.NoSuchObject()},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.9.2"), Value: snmp.NoSuchInstance()},
			{OID: snmp.MustOID("1.3.6.1.4.1.54321.9.3"), Value: snmp.EndOfMibView()},
		},
	}}
	out, err := snmp.EncodeMessage(every)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "every-type %s\n", hex.EncodeToString(out))

	host := hostagent.NewHost("golden")
	for i, p := range []string{hostagent.ParamCPULoad, hostagent.ParamPageFaults, hostagent.ParamFreeMem,
		hostagent.ParamBandwidth, hostagent.ParamLatency, hostagent.ParamJitter} {
		host.Set(p, float64(10+i*37))
	}
	host.Set(hostagent.ParamSignal, -12.5)
	agent := hostagent.NewAgent(host)
	agent.ReadCommunity, agent.WriteCommunity = "public", "private"
	cpu, faults := hostagent.OIDCPULoad.Append(0), hostagent.OIDPageFaults.Append(0)
	null := func(oids ...snmp.OID) []snmp.VarBind {
		vbs := make([]snmp.VarBind, len(oids))
		for i, o := range oids {
			vbs[i] = snmp.VarBind{OID: o, Value: snmp.Null()}
		}
		return vbs
	}
	requests := []struct {
		name string
		m    snmp.Message
	}{
		{"get", snmp.Message{Version: snmp.V2c, Community: "public", PDU: snmp.PDU{Type: snmp.GetRequest, RequestID: 101,
			VarBinds: null(cpu, faults, hostagent.OIDSysDescr.Append(0), snmp.MustOID("1.3.6.1.4.1.54321.1.99.0"))}}},
		{"getnext", snmp.Message{Version: snmp.V2c, Community: "public", PDU: snmp.PDU{Type: snmp.GetNextRequest, RequestID: 102,
			VarBinds: null(hostagent.OIDSysDescr, hostagent.OIDSignalStrength.Append(0))}}},
		{"getbulk", snmp.Message{Version: snmp.V2c, Community: "public", PDU: snmp.PDU{Type: snmp.GetBulkRequest, RequestID: 103,
			ErrorStatus: 1, ErrorIndex: 4, VarBinds: null(hostagent.OIDSysUpTime, hostagent.OIDLatencyMicros)}}},
		{"set", snmp.Message{Version: snmp.V2c, Community: "private", PDU: snmp.PDU{Type: snmp.SetRequest, RequestID: 104,
			VarBinds: []snmp.VarBind{{OID: cpu, Value: snmp.Gauge32(99)}}}}},
		{"v1-missing", snmp.Message{Version: snmp.V1, Community: "public", PDU: snmp.PDU{Type: snmp.GetRequest, RequestID: 105,
			VarBinds: null(cpu, snmp.MustOID("1.3.6.1.4.1.54321.1.99.0"))}}},
		{"bad-community", snmp.Message{Version: snmp.V2c, Community: "guess", PDU: snmp.PDU{Type: snmp.GetRequest, RequestID: 106,
			VarBinds: null(cpu)}}},
	}
	answers := make([][]byte, len(requests))
	for i, rq := range requests {
		req, err := snmp.EncodeMessage(&rq.m)
		if err != nil {
			t.Fatalf("%s: %v", rq.name, err)
		}
		resp, err := agent.HandleFrame(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", rq.name, err)
		}
		fmt.Fprintf(&got, "agent %s request %s\n", rq.name, hex.EncodeToString(req))
		if resp == nil {
			fmt.Fprintf(&got, "agent %s dropped\n", rq.name)
			continue
		}
		fmt.Fprintf(&got, "agent %s answer %s\n", rq.name, hex.EncodeToString(resp))
		answers[i] = resp
	}
	// The agent keeps the messages it decodes into and answers from:
	// asked everything again, appending to a buffer that holds bytes
	// already, it answers each request as it did the first time.
	for i, rq := range requests {
		req, _ := snmp.EncodeMessage(&rq.m)
		resp, err := agent.HandleFrame([]byte("kept"), req)
		switch {
		case err != nil:
			t.Fatalf("%s again: %v", rq.name, err)
		case answers[i] == nil && resp != nil, answers[i] != nil && string(resp) != "kept"+string(answers[i]):
			t.Errorf("%s again: answered %x, first %x", rq.name, resp, answers[i])
		}
	}

	const path = "testdata/frames.golden"
	if *updateFrames {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("SNMP bytes moved at line %d of %s:\n got %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("SNMP bytes moved: %d lines, golden has %d", len(gl), len(wl))
	}
}

// readSeed reads one corpus file of the form `go test fuzz v1` followed
// by a single []byte("...") line.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
		t.Fatalf("%s: not a []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
