package snmp_test

import (
	"fmt"

	"adaptiveqos/internal/snmp"
)

// An agent serves instrumentation routines registered in a MIB; a
// manager queries it by OID — the paper's network state interface.
func Example() {
	mib := snmp.NewMIB()
	cpuLoad := 42.0
	mib.RegisterScalar(snmp.MustOID("1.3.6.1.4.1.54321.1.1"), func() snmp.Value {
		return snmp.Gauge32(uint32(cpuLoad))
	})
	agent := snmp.NewAgent(mib)
	agent.ReadCommunity = "public"

	client := snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "public")
	vbs, err := client.Get(snmp.MustOID("1.3.6.1.4.1.54321.1.1.0"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("cpu-load = %d%%\n", vbs[0].Value.Uint)

	cpuLoad = 87
	vbs, _ = client.Get(snmp.MustOID("1.3.6.1.4.1.54321.1.1.0"))
	fmt.Printf("cpu-load = %d%%\n", vbs[0].Value.Uint)
	// Output:
	// cpu-load = 42%
	// cpu-load = 87%
}

// Walk visits every instance under a prefix via repeated GETNEXT.
func ExampleClient_Walk() {
	mib := snmp.NewMIB()
	mib.RegisterScalar(snmp.MustOID("1.3.6.1.2.1.1.1"), func() snmp.Value {
		return snmp.String8("simulated host")
	})
	mib.RegisterScalar(snmp.MustOID("1.3.6.1.2.1.1.3"), func() snmp.Value {
		return snmp.TimeTicks(4711)
	})
	client := snmp.NewClient(&snmp.AgentRoundTripper{Agent: snmp.NewAgent(mib)}, snmp.V2c, "")

	client.Walk(snmp.MustOID("1.3.6.1"), func(vb snmp.VarBind) bool {
		fmt.Printf("%s = %s\n", vb.OID, vb.Value)
		return true
	})
	// Output:
	// 1.3.6.1.2.1.1.1.0 = STRING: "simulated host"
	// 1.3.6.1.2.1.1.3.0 = Timeticks: 4711
}
