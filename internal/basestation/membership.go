package basestation

// Membership control plane: joining, departure, per-client service
// assessment and the radio/power-control knobs.  Membership state
// itself lives in internal/registry; these methods are the
// policy around it (SIR → tier mapping, folding assessments back into
// profile state).

import (
	"fmt"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/slo"
)

// Join admits a wireless client at the given geometry.  The base
// station evaluates its distance, transmitting rate and power —
// considering the noise effect of the other wireless clients — and
// returns the basic service assessment.
func (bs *BaseStation) Join(p *profile.Profile, distance, power float64) (Assessment, error) {
	if bs.reg.Has(p.ID) {
		return Assessment{}, fmt.Errorf("%w: %s", ErrAlreadyJoined, p.ID)
	}
	if err := bs.channel.Join(p.ID, distance, power); err != nil {
		return Assessment{}, err
	}
	bs.reg.Put(p)
	return bs.Assess(p.ID)
}

// Leave removes a wireless client.
func (bs *BaseStation) Leave(id string) error {
	if !bs.reg.Remove(id) {
		return fmt.Errorf("%w: %s", ErrNotJoined, id)
	}
	bs.channel.Leave(id)
	return nil
}

// Clients returns the joined wireless client IDs in ascending order.
func (bs *BaseStation) Clients() []string { return bs.reg.IDs() }

// Registry exposes the membership registry, for a caller that reads
// or assesses the station's members directly (the benchmark's
// bs-relay ladder).
func (bs *BaseStation) Registry() *registry.Registry { return bs.reg }

// radioState reads a client's current radio state from the channel:
// its SIR, the tier the thresholds give that SIR, its power and its
// distance.
func (bs *BaseStation) radioState(id string) (Assessment, error) {
	db, err := bs.channel.SIRdB(id)
	if err != nil {
		return Assessment{}, err
	}
	cl, err := bs.channel.Get(id)
	if err != nil {
		return Assessment{}, err
	}
	return Assessment{SIRdB: db, Tier: bs.cfg.Thresholds.TierFor(db), Power: cl.Power, Distance: cl.Distance}, nil
}

// Assess computes the current service assessment for a client.  The
// assessment is also folded into the stored profile (one registry
// lookup) so the client's signal state is semantically selectable.
func (bs *BaseStation) Assess(id string) (Assessment, error) {
	a, err := bs.radioState(id)
	if err == nil {
		err = bs.reg.PutAssessment(id, registry.Assessment{SIRdB: a.SIRdB, Power: a.Power, Distance: a.Distance})
	}
	if err != nil {
		return Assessment{}, err
	}
	return a, nil
}

// SampleQoS feeds the wireless segment's QoS state into the gauge
// set: per-client SIR, service tier and power-control state (transmit
// power, distance) and the population size.  Each member's radio
// picture also goes to the SLO engine (slo.ObserveRadio), the one way
// it learns a tier.  The signature matches obs.SamplerFunc so the
// telemetry tick can sample the base station directly.
func (bs *BaseStation) SampleQoS(set func(name string, value float64)) {
	ids := bs.reg.IDs()
	now := bs.clk.Now()
	set(`bs_clients{bs="`+metrics.EscapeLabel(bs.id)+`"}`, float64(len(ids)))
	for _, id := range ids {
		a, err := bs.radioState(id)
		if err != nil {
			continue
		}
		label := `{bs="` + metrics.EscapeLabel(bs.id) + `",client="` + metrics.EscapeLabel(id) + `"}`
		set("client_sir_db"+label, a.SIRdB)
		set("client_tier"+label, float64(a.Tier))
		set("client_power"+label, a.Power)
		set("client_distance"+label, a.Distance)
		slo.ObserveRadio(id, slo.RadioSnapshot{BS: bs.id, SIRdB: a.SIRdB, Power: a.Power, Distance: a.Distance, Tier: int(a.Tier)}, now)
	}
}

// SetDistance moves a wireless client (mobility).
func (bs *BaseStation) SetDistance(id string, d float64) error {
	return bs.channel.SetDistance(id, d)
}

// Channel exposes the radio model (for experiments).
func (bs *BaseStation) Channel() *radio.Channel { return bs.channel }

// PowerControl runs one target-SIR power-control iteration and returns
// the adjusted powers.
func (bs *BaseStation) PowerControl(targetDB, minPower, maxPower float64) (map[string]float64, error) {
	return bs.channel.PowerControlStep(targetDB, minPower, maxPower)
}
