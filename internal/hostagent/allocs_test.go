//go:build !race

package hostagent

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/snmp"
)

// TestSampleAllocs pins the network state interface's round trip, the
// one poll every client's adaptation tick makes (DESIGN.md §3): warm,
// a Monitor's GET of two parameters over the in-process agent
// allocates nothing, on the manager's side (the request encoded into
// the client's buffer, the answer decoded into the monitor's message)
// or the agent's (the request decoded into its own message, each
// object found by its encoded OID, the answer encoded straight into
// the client's buffer).  It was 95 allocations, 50 of them the agent's.
// Excluded under -race: the detector's instrumentation allocates.
func TestSampleAllocs(t *testing.T) {
	h := NewHost("h")
	h.Set(ParamCPULoad, 35)
	h.Set(ParamPageFaults, 80)
	agent := NewAgent(h)
	m := &Monitor{Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "public")}
	if _, err := m.Sample(ParamCPULoad, ParamPageFaults); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.Sample(ParamCPULoad, ParamPageFaults); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Monitor.Sample of two parameters: %g allocations, want 0", n)
	}

	req, err := snmp.AppendMessage(nil, &snmp.Message{Version: snmp.V2c, Community: "public", PDU: snmp.PDU{
		Type: snmp.GetRequest, RequestID: 9, VarBinds: []snmp.VarBind{
			{OID: OIDCPULoad.Append(0), Value: snmp.Null()},
			{OID: OIDPageFaults.Append(0), Value: snmp.Null()},
			{OID: OIDSignalStrength.Append(0), Value: snmp.Null()},
			{OID: OIDSysUpTime.Append(0), Value: snmp.Null()},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := agent.HandleFrame(nil, req)
	if n := testing.AllocsPerRun(200, func() {
		if out, err := agent.HandleFrame(dst[:0], req); err != nil || out == nil {
			t.Fatalf("agent answered %x (%v)", out, err)
		}
	}); n != 0 {
		t.Errorf("the agent's answer to a GET of four scalar instances: %g allocations, want 0", n)
	}
}

// TestWalkOverUDP: cmd/snmpget's walk of cmd/snmpd's host MIB over
// loopback UDP visits the MIB in order with the host's values, as it
// always has, and a step costs the manager no 64 KiB datagram buffer:
// the round tripper reads every reply into the one it keeps.  (Escape
// analysis used to keep the per-request buffer on the stack, so the
// heap never saw it; what it cost was 64 KiB zeroed per request and a
// stack that large.)  Manager and agent together allocate under 1 KiB
// of heap a step; they allocated about 2.5 KiB before the codec
// encoded and decoded in place.
func TestWalkOverUDP(t *testing.T) {
	h := NewHost("host-1")
	h.SetSchedule(ParamCPULoad, Ramp{From: 30, To: 100, Steps: 20})
	h.SetSchedule(ParamPageFaults, Ramp{From: 30, To: 100, Steps: 20})
	h.Set(ParamBandwidth, 10_000_000)
	agent := NewAgent(h)
	agent.ReadCommunity = "public"
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.ServeUDP(sock)
	}()
	defer func() { sock.Close(); <-done }()
	rt := &snmp.UDPRoundTripper{Addr: sock.LocalAddr().String(), Timeout: time.Second, Retries: 1}
	defer rt.Close()
	client := snmp.NewClient(rt, snmp.V2c, "public")

	walk := func() (lines []string) {
		if err := client.Walk(snmp.MustOID("1.3.6.1"), func(vb snmp.VarBind) bool {
			lines = append(lines, fmt.Sprintf("%s = %s", vb.OID, vb.Value))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	want := []string{
		`1.3.6.1.2.1.1.1.0 = STRING: "adaptiveqos simulated host host-1"`,
		`1.3.6.1.2.1.1.3.0 = Timeticks: 0`,
		`1.3.6.1.4.1.54321.1.1.0 = Gauge32: 30`,
		`1.3.6.1.4.1.54321.1.2.0 = Gauge32: 30`,
		`1.3.6.1.4.1.54321.1.3.0 = Gauge32: 0`,
		`1.3.6.1.4.1.54321.1.4.0 = Gauge32: 10000000`,
		`1.3.6.1.4.1.54321.1.5.0 = Gauge32: 0`,
		`1.3.6.1.4.1.54321.1.6.0 = Gauge32: 0`,
		`1.3.6.1.4.1.54321.1.7.0 = INTEGER: 0`,
	}
	if got := walk(); !slices.Equal(got, want) {
		t.Fatalf("walk over UDP:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	walk()
	runtime.ReadMemStats(&after)
	steps := uint64(len(want) + 1) // the last GETNEXT leaves the subtree
	if per := (after.TotalAlloc - before.TotalAlloc) / steps; per > 1<<10 {
		t.Errorf("a walk step allocated %d B, manager and agent together, want at most 1 KiB", per)
	}
}
