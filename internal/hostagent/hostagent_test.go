package hostagent

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/snmp"
)

func TestSchedules(t *testing.T) {
	if Constant(42).At(0) != 42 || Constant(42).At(100) != 42 {
		t.Error("Constant")
	}

	r := Ramp{From: 30, To: 100, Steps: 8}
	if r.At(0) != 30 {
		t.Errorf("ramp start = %g", r.At(0))
	}
	if r.At(7) != 100 || r.At(100) != 100 {
		t.Errorf("ramp end = %g / %g", r.At(7), r.At(100))
	}
	mid := r.At(3)
	if mid <= 30 || mid >= 100 {
		t.Errorf("ramp mid = %g", mid)
	}
	for s := 1; s < 8; s++ {
		if r.At(s) < r.At(s-1) {
			t.Errorf("ramp not monotone at %d", s)
		}
	}
	if (Ramp{From: 1, To: 2, Steps: 1}).At(0) != 2 {
		t.Error("degenerate ramp should hold To")
	}
}

func TestHostStepAndSchedules(t *testing.T) {
	h := NewHost("wired-1")
	h.SetSchedule(ParamPageFaults, Ramp{From: 30, To: 100, Steps: 5})
	h.SetSchedule(ParamCPULoad, Constant(40))
	h.Set(ParamBandwidth, 1e6)

	if got := h.Get(ParamPageFaults); got != 30 {
		t.Errorf("step-0 page faults = %g", got)
	}
	h.Step()
	if h.step != 1 {
		t.Error("step index")
	}
	if got := h.Get(ParamPageFaults); got <= 30 {
		t.Errorf("page faults after step = %g", got)
	}
	if h.Get(ParamCPULoad) != 40 {
		t.Error("constant schedule changed")
	}
	if h.Get(ParamBandwidth) != 1e6 {
		t.Error("fixed value changed")
	}
	for i := 0; i < 10; i++ {
		h.Step()
	}
	if got := h.Get(ParamPageFaults); got != 100 {
		t.Errorf("page faults at end = %g", got)
	}
	// Set clears a schedule.
	h.Set(ParamPageFaults, 55)
	h.Step()
	if h.Get(ParamPageFaults) != 55 {
		t.Error("Set did not clear schedule")
	}
}

func TestAgentServesInstrumentation(t *testing.T) {
	h := NewHost("h1")
	h.Set(ParamCPULoad, 72.4)
	h.Set(ParamPageFaults, 88)
	h.Set(ParamSignal, -7.5)
	agent := NewAgent(h)
	client := snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "public")

	v, err := getNumber(client, OIDCPULoad.Append(0))
	if err != nil || v != 72 { // gauge rounds
		t.Errorf("cpu = %g, %v", v, err)
	}
	v, err = getNumber(client, OIDPageFaults.Append(0))
	if err != nil || v != 88 {
		t.Errorf("page faults = %g, %v", v, err)
	}
	// Signal is Integer dB ×10, may be negative.
	v, err = getNumber(client, OIDSignalStrength.Append(0))
	if err != nil || v != -75 {
		t.Errorf("signal = %g, %v", v, err)
	}

	// sysDescr/sysUpTime respond.
	sd, err := getOne(client, OIDSysDescr.Append(0))
	if err != nil || len(sd.Bytes) == 0 {
		t.Errorf("sysDescr: %v %v", sd, err)
	}
	h.Step()
	up, err := getOne(client, OIDSysUpTime.Append(0))
	if err != nil || up.Uint != 100 {
		t.Errorf("sysUpTime: %v %v", up, err)
	}

	// A full walk covers the registered instruments + 2 system objects.
	var count int
	if err := client.Walk(snmp.MustOID("1.3.6.1"), func(snmp.VarBind) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(instruments)+2 {
		t.Errorf("walk visited %d, want %d", count, len(instruments)+2)
	}
}

func TestGaugeClamping(t *testing.T) {
	h := NewHost("h")
	h.Set(ParamCPULoad, -5)
	h.Set(ParamBandwidth, 1e12)
	agent := NewAgent(h)
	client := snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "")

	v, err := getNumber(client, OIDCPULoad.Append(0))
	if err != nil || v != 0 {
		t.Errorf("negative gauge = %g", v)
	}
	v, err = getNumber(client, OIDBandwidth.Append(0))
	if err != nil || v != math.MaxUint32 {
		t.Errorf("overflow gauge = %g", v)
	}
}

func TestMonitorSample(t *testing.T) {
	h := NewHost("h")
	h.Set(ParamCPULoad, 60)
	h.Set(ParamPageFaults, 45)
	h.Set(ParamSignal, -3.2)
	m := &Monitor{Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: NewAgent(h)}, snmp.V2c, "")}

	got, err := m.Sample(ParamCPULoad, ParamPageFaults, ParamSignal)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := got.Get(ParamCPULoad)
	faults, _ := got.Get(ParamPageFaults)
	if cpu != 60 || faults != 45 {
		t.Errorf("sample: %+v", got)
	}
	if signal, _ := got.Get(ParamSignal); signal != -3.2 {
		t.Errorf("signal rescale: %g", signal)
	}
	if v, ok := got.Get(ParamBandwidth); ok {
		t.Errorf("bandwidth %g in a sample that did not ask for it", v)
	}

	if _, err := m.Sample("no-such-param"); err == nil {
		t.Error("unknown parameter should fail")
	}
}

// TestConcurrentSamples: four goroutines sample at once, each asking
// for its own parameters in its own order, and every reading holds
// exactly the host's values for what it asked.  Two of them share a
// Monitor, that Monitor shares its client with a third's, and the
// fourth's client shares the agent: the monitor, the client and the
// agent each reuse their buffers exchange to exchange, so a reading
// that saw another's answer shows here (and a data race under -race).
func TestConcurrentSamples(t *testing.T) {
	h := NewHost("shared")
	want := map[string]float64{ParamCPULoad: 35, ParamPageFaults: 80, ParamFreeMem: 4096,
		ParamBandwidth: 64000, ParamLatency: 1500, ParamJitter: 250, ParamSignal: -7.5}
	for p, v := range want {
		h.Set(p, v)
	}
	agent := NewAgent(h)
	shared := snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "")
	m := &Monitor{Client: shared}
	monitors := []*Monitor{m, m, {Client: shared},
		{Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "")}}
	asks := [][]string{
		{ParamCPULoad, ParamPageFaults},
		{ParamSignal, ParamBandwidth, ParamLatency},
		{ParamJitter},
		{ParamFreeMem, ParamCPULoad, ParamSignal, ParamPageFaults, ParamJitter},
	}
	errs := make(chan error, len(asks))
	for i, params := range asks {
		go func() {
			for range 200 {
				r, err := monitors[i].Sample(params...)
				if err != nil {
					errs <- err
					return
				}
				for p := range want {
					v, ok := r.Get(p)
					if asked := slices.Contains(params, p); ok != asked || (ok && v != want[p]) {
						errs <- fmt.Errorf("sampling %v read %s = %g (%v)", params, p, v, ok)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range asks {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestQuickRampMonotone: ramps are monotone between their endpoints
// for arbitrary parameters.
func TestQuickRampMonotone(t *testing.T) {
	f := func(from, to float64, steps int) bool {
		if math.IsNaN(from) || math.IsNaN(to) || math.IsInf(from, 0) || math.IsInf(to, 0) {
			return true
		}
		// Constrain to the schedule's realistic domain (loads, rates,
		// byte counts); astronomically large magnitudes overflow the
		// interpolation arithmetic and are not meaningful workloads.
		from = math.Mod(from, 1e9)
		to = math.Mod(to, 1e9)
		steps = steps%100 + 2
		if steps < 2 {
			steps = 2
		}
		r := Ramp{From: from, To: to, Steps: steps}
		up := to >= from
		prev := r.At(0)
		if prev != from {
			return false
		}
		for s := 1; s < steps; s++ {
			cur := r.At(s)
			if up && cur < prev-1e-9 {
				return false
			}
			if !up && cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return r.At(steps-1) == to
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// getOne fetches a single OID's value.
func getOne(c *snmp.Client, oid snmp.OID) (snmp.Value, error) {
	vbs, err := c.Get(oid)
	if err != nil {
		return snmp.Value{}, err
	}
	return vbs[0].Value, nil
}

// getNumber fetches a single OID as a float64.
func getNumber(c *snmp.Client, oid snmp.OID) (float64, error) {
	v, err := getOne(c, oid)
	if err != nil {
		return 0, err
	}
	n, ok := v.Number()
	if !ok {
		return 0, fmt.Errorf("%s has non-numeric type %s", oid, v.Type)
	}
	return n, nil
}
