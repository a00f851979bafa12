//go:build !race

package core

import (
	"testing"

	"adaptiveqos/internal/hostagent"
)

// TestAdaptOnceAllocs: an idle client's adaptation costs no more with
// a Monitor than without one.  With one, the SNMP round trip allocates
// nothing (hostagent's TestSampleAllocs) and the client folds the
// sample into a state map and a profile fold it keeps; without one, the
// state is the profile's deep copy.  The two were 102 and 5.
// Excluded under -race: the detector's instrumentation allocates.
func TestAdaptOnceAllocs(t *testing.T) {
	host, mon := monitoredHost("idle-host")
	host.Set(hostagent.ParamCPULoad, 20)
	host.Set(hostagent.ParamPageFaults, 40)
	n := newVNet(t, 6)
	clients := map[string]*Client{
		"with a Monitor":    n.client("monitored", Config{Monitor: mon}),
		"without a Monitor": n.client("plain", Config{}),
	}
	allocs := map[string]float64{}
	for name, c := range clients {
		if _, err := c.AdaptOnce(); err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(100, func() {
			if _, err := c.AdaptOnce(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("AdaptOnce %s: %g allocations", name, allocs[name])
	}
	if with, without := allocs["with a Monitor"], allocs["without a Monitor"]; with > without {
		t.Errorf("an idle AdaptOnce allocates %g times with a Monitor, %g without: want no more", with, without)
	}
}
