// Package hostagent implements the specialized embedded extension
// agent that runs on each monitored host, serviced by instrumentation
// routines, plus the synthetic workload generator that stands in for
// the paper's Windows NT performance counters.
//
// The paper's testbed read CPU load and page faults from live NT
// workstations; this reproduction drives the same SNMP MIB variables
// from configurable schedules (ramps, traces, noise), so the
// experiments sweep exactly the ranges the paper sweeps (page faults
// 30→100, CPU load 30→100 %) while remaining deterministic.
package hostagent

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/snmp"
)

// The private enterprise arc used by the embedded extension agent.
// (1.3.6.1.4.1.54321 — a placeholder enterprise number for the
// reproduction; the paper does not name one.)
var (
	oidEnterprise = snmp.MustOID("1.3.6.1.4.1.54321")

	// OIDCPULoad is the host CPU load in percent (Gauge32).
	OIDCPULoad = oidEnterprise.Append(1, 1)
	// OIDPageFaults is the recent page-fault rate in faults/s (Gauge32).
	OIDPageFaults = oidEnterprise.Append(1, 2)
	// OIDFreeMemory is free memory in KiB (Gauge32).
	OIDFreeMemory = oidEnterprise.Append(1, 3)
	// OIDBandwidth is available network bandwidth in bit/s (Gauge32).
	OIDBandwidth = oidEnterprise.Append(1, 4)
	// OIDLatencyMicros is measured path latency in µs (Gauge32).
	OIDLatencyMicros = oidEnterprise.Append(1, 5)
	// OIDJitterMicros is measured path jitter in µs (Gauge32).
	OIDJitterMicros = oidEnterprise.Append(1, 6)
	// OIDSignalStrength is wireless signal strength in dB ×10 (Integer,
	// may be negative).
	OIDSignalStrength = oidEnterprise.Append(1, 7)

	// OIDSysDescr and OIDSysUpTime are the standard MIB-2 system group
	// objects the agent also answers.
	OIDSysDescr  = snmp.MustOID("1.3.6.1.2.1.1.1")
	OIDSysUpTime = snmp.MustOID("1.3.6.1.2.1.1.3")
)

// Parameter names used by schedules and the framework's state space.
const (
	ParamCPULoad    = "cpu-load"
	ParamPageFaults = "page-faults"
	ParamFreeMem    = "free-memory"
	ParamBandwidth  = "bandwidth"
	ParamLatency    = "latency"
	ParamJitter     = "jitter"
	ParamSignal     = "signal"
)

// instruments maps parameter names to MIB objects and their scalar
// instances (the object's OID with .0 appended).
var instruments = [...]struct {
	param    string
	oid      snmp.OID
	instance snmp.OID
	kind     func(float64) snmp.Value
}{
	{ParamCPULoad, OIDCPULoad, OIDCPULoad.Append(0), gauge},
	{ParamPageFaults, OIDPageFaults, OIDPageFaults.Append(0), gauge},
	{ParamFreeMem, OIDFreeMemory, OIDFreeMemory.Append(0), gauge},
	{ParamBandwidth, OIDBandwidth, OIDBandwidth.Append(0), gauge},
	{ParamLatency, OIDLatencyMicros, OIDLatencyMicros.Append(0), gauge},
	{ParamJitter, OIDJitterMicros, OIDJitterMicros.Append(0), gauge},
	{ParamSignal, OIDSignalStrength, OIDSignalStrength.Append(0), func(v float64) snmp.Value {
		return snmp.Integer(int64(math.Round(v * 10)))
	}},
}

func gauge(v float64) snmp.Value {
	if v < 0 {
		v = 0
	}
	if v > math.MaxUint32 {
		v = math.MaxUint32
	}
	return snmp.Gauge32(uint32(math.Round(v)))
}

// Schedule produces a parameter value for each workload step.
type Schedule interface {
	// At returns the value at step (0-based).
	At(step int) float64
}

// Constant is a flat schedule.
type Constant float64

// At implements Schedule.
func (c Constant) At(int) float64 { return float64(c) }

// Ramp linearly interpolates From→To over Steps steps, then holds To.
type Ramp struct {
	From, To float64
	Steps    int
}

// At implements Schedule.
func (r Ramp) At(step int) float64 {
	if r.Steps <= 1 || step >= r.Steps-1 {
		return r.To
	}
	if step <= 0 {
		return r.From
	}
	f := float64(step) / float64(r.Steps-1)
	return r.From + (r.To-r.From)*f
}

// Host is a simulated monitored host: a set of named parameters driven
// by schedules, exposed through SNMP instrumentation routines.  It is
// safe for concurrent use (the SNMP agent reads while the experiment
// driver steps the workload).
type Host struct {
	Name string

	mu        sync.RWMutex
	step      int
	ticks     uint32
	values    map[string]float64
	names     []string // the keys of values, ascending: SampleQoS walks them
	schedules map[string]Schedule
}

// NewHost creates a host with every parameter at zero.
func NewHost(name string) *Host {
	return &Host{
		Name:      name,
		values:    make(map[string]float64),
		schedules: make(map[string]Schedule),
	}
}

// SetSchedule attaches a schedule to a parameter and applies its step-0
// value immediately.
func (h *Host) SetSchedule(param string, s Schedule) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.schedules[param] = s
	h.setLocked(param, s.At(h.step))
}

// Set forces a parameter to a fixed value (clearing any schedule).
func (h *Host) Set(param string, v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.schedules, param)
	h.setLocked(param, v)
}

// setLocked stores v for param, listing a new param in name order.
// Caller holds h.mu.
func (h *Host) setLocked(param string, v float64) {
	if _, ok := h.values[param]; !ok {
		i, _ := slices.BinarySearch(h.names, param)
		h.names = slices.Insert(h.names, i, param)
	}
	h.values[param] = v
}

// Get returns the current value of a parameter.
func (h *Host) Get(param string) float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.values[param]
}

// SampleQoS feeds every current host parameter into the QoS gauge
// set (the system-state side of the telemetry the contract adapts
// to), in name order, so a session record lists them the same way
// every run.  The signature matches obs.SamplerFunc so the telemetry
// tick can sample the host directly.
func (h *Host) SampleQoS(set func(name string, value float64)) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, param := range h.names {
		set(`host_param{host="`+metrics.EscapeLabel(h.Name)+`",param="`+metrics.EscapeLabel(param)+`"}`, h.values[param])
	}
}

// Step advances the workload one step, re-evaluating every schedule.
// It returns the new step index.
func (h *Host) Step() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.step++
	h.ticks += 100 // pretend each step is one second of uptime
	for param, s := range h.schedules {
		h.values[param] = s.At(h.step)
	}
	return h.step
}

// NewAgent builds an SNMP agent whose MIB is instrumented from the
// host's parameters — the embedded extension agent.
func NewAgent(h *Host) *snmp.Agent {
	mib := snmp.NewMIB()
	register := func(oid snmp.OID, get func() snmp.Value) {
		if err := mib.RegisterScalar(oid, get); err != nil {
			// Registration of the static instrument table cannot fail
			// unless the table itself is broken; make that loud.
			panic(fmt.Sprintf("hostagent: %v", err))
		}
	}
	register(OIDSysDescr, func() snmp.Value {
		return snmp.String8("adaptiveqos simulated host " + h.Name)
	})
	register(OIDSysUpTime, func() snmp.Value {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return snmp.TimeTicks(h.ticks)
	})
	for _, inst := range instruments {
		inst := inst
		register(inst.oid, func() snmp.Value {
			return inst.kind(h.Get(inst.param))
		})
	}
	return snmp.NewAgent(mib)
}

// Monitor polls a host's agent through an SNMP client and exposes the
// sampled parameters as plain numbers — the manager-side half of the
// network state interface.  It is safe for concurrent use.
type Monitor struct {
	Client *snmp.Client

	// mu serializes samples over the request OIDs and the response the
	// monitor keeps from one sample to the next.
	mu   sync.Mutex
	oids []snmp.OID
	resp snmp.Message
}

// Reading is one sample of a host's parameters.  It is a value: no
// later sample changes a Reading already returned.
type Reading struct {
	v  [len(instruments)]float64
	ok [len(instruments)]bool
}

// Get returns a sampled parameter's value; ok is false for a parameter
// the sample did not ask for.
func (r Reading) Get(param string) (v float64, ok bool) {
	i := paramIndex(param)
	if i < 0 || !r.ok[i] {
		return 0, false
	}
	return r.v[i], true
}

// Sample fetches the named parameters in one GET.  Unknown names are
// an error; the caller controls the parameter set.  Warm, a sample
// allocates nothing.
func (m *Monitor) Sample(params ...string) (Reading, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.oids = m.oids[:0]
	for _, p := range params {
		i := paramIndex(p)
		if i < 0 {
			return Reading{}, fmt.Errorf("hostagent: unknown parameter %q", p)
		}
		m.oids = append(m.oids, instruments[i].instance)
	}
	if err := m.Client.GetInto(&m.resp, m.oids...); err != nil {
		return Reading{}, err
	}
	var r Reading
	for i, vb := range m.resp.PDU.VarBinds {
		if vb.Value.IsException() {
			return Reading{}, fmt.Errorf("hostagent: %s: %s", params[i], vb.Value.Type)
		}
		n, ok := vb.Value.Number()
		if !ok {
			return Reading{}, fmt.Errorf("hostagent: %s has non-numeric value", params[i])
		}
		if params[i] == ParamSignal {
			n /= 10 // stored as dB ×10
		}
		k := paramIndex(params[i])
		r.v[k], r.ok[k] = n, true
	}
	return r, nil
}

// paramIndex is the parameter's row in instruments, or -1.
func paramIndex(p string) int {
	for i := range instruments {
		if instruments[i].param == p {
			return i
		}
	}
	return -1
}
