package radio

import (
	"math"
	"sort"
)

// Tier is the modality level a client's uplink SIR supports.  The base
// station sets SIR thresholds for text description only, text plus
// base-image sketch, and the full image description, and forwards the
// richest tier the received SIR admits.
type Tier int

// Tiers in increasing richness.
const (
	// TierNone: the SIR supports no reliable reception.
	TierNone Tier = iota
	// TierText: text description only.
	TierText
	// TierSketch: text plus the base-image sketch.
	TierSketch
	// TierImage: the full image description.
	TierImage
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierText:
		return "text"
	case TierSketch:
		return "text+sketch"
	case TierImage:
		return "full-image"
	default:
		return "tier(?)"
	}
}

// Thresholds are the SIR levels (dB) gating each tier.
type Thresholds struct {
	TextDB   float64 `json:"text_db"`   // minimum SIR for text
	SketchDB float64 `json:"sketch_db"` // minimum SIR for text + sketch
	ImageDB  float64 `json:"image_db"`  // minimum SIR for the full image
}

// DefaultThresholds are the reproduction's standard tiers: the paper
// mentions an image threshold around 4 dB.
func DefaultThresholds() Thresholds {
	return Thresholds{TextDB: -6, SketchDB: 0, ImageDB: 4}
}

// TierFor maps a received SIR (dB) to the richest admissible tier.
func (th Thresholds) TierFor(sirDB float64) Tier {
	switch {
	case sirDB >= th.ImageDB:
		return TierImage
	case sirDB >= th.SketchDB:
		return TierSketch
	case sirDB >= th.TextDB:
		return TierText
	default:
		return TierNone
	}
}

// ScaleAllPowers multiplies every client's transmit power by factor
// (>0).  With power-proportional noise and no noise floor this leaves
// every SIR unchanged while reducing energy — the Goodman–Mandayam
// observation the base station exploits to conserve client batteries.
func (c *Channel) ScaleAllPowers(factor float64) error {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return ErrBadParam
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.clients {
		cl.Power *= factor
	}
	return nil
}

// PowerControlStep runs one iteration of distributed target-SIR power
// control (Foschini–Miljanic): each client multiplies its power by
// target/current, clamped to [minPower, maxPower].  The base station
// issues these adjustments; a client above target reduces power
// (conserving battery and lowering interference for everyone else),
// one below target raises it.  Returns the per-client powers applied.
func (c *Channel) PowerControlStep(targetDB, minPower, maxPower float64) (map[string]float64, error) {
	if minPower <= 0 || maxPower < minPower {
		return nil, ErrBadParam
	}
	target := math.Pow(10, targetDB/10)

	c.mu.Lock()
	defer c.mu.Unlock()
	// Compute all SIRs against the *current* power vector first, then
	// apply updates synchronously (the standard parallel iteration).
	type upd struct {
		cl  *Client
		sir float64
	}
	updates := make([]upd, 0, len(c.members))
	for _, cl := range c.members {
		updates = append(updates, upd{cl, c.sirLocked(cl)})
	}
	out := make(map[string]float64, len(updates))
	for _, u := range updates {
		p := u.cl.Power * target / u.sir
		if p < minPower {
			p = minPower
		}
		if p > maxPower {
			p = maxPower
		}
		u.cl.Power = p
		out[u.cl.ID] = p
	}
	return out, nil
}

// Utility computes the Goodman–Mandayam style utility for a client:
// throughput-per-watt, modeled as efficiency(SIR)·R / P where the
// efficiency function f(γ) = (1 − e^{−γ/2})^M approximates the frame
// success rate for M-bit frames.
func (c *Channel) Utility(id string, frameBits int, rateBps float64) (float64, error) {
	sir, err := c.SIR(id)
	if err != nil {
		return 0, err
	}
	cl, err := c.Get(id)
	if err != nil {
		return 0, err
	}
	if frameBits < 1 {
		frameBits = 80
	}
	eff := math.Pow(1-math.Exp(-sir/2), float64(frameBits))
	return eff * rateBps / cl.Power, nil
}

// AdmissionLimit estimates the maximum number of equal clients (same
// distance d, same power p) that can sustain at least minSIRdB: beyond
// this, no transformation or change of distance, power or modality
// improves performance noticeably — the session's upper size limit
// from the paper's Fig 10 discussion.
func (c *Channel) AdmissionLimit(d, p, minSIRdB float64) int {
	params := c.Params()
	dd := d
	if dd < params.MinDistance {
		dd = params.MinDistance
	}
	g := params.RefGain * math.Pow(dd, -params.PathLossExponent)
	noise := params.NoiseFloor + p/math.Pow(10, params.NoiseExp)
	minSIR := math.Pow(10, minSIRdB/10)
	// SIR with n equal clients: pg / ((n-1)pg + noise) >= minSIR
	// → n <= 1 + (pg/minSIR - noise)/pg.
	pg := p * g
	if pg <= 0 {
		return 0
	}
	n := 1 + (pg/minSIR-noise)/pg
	if n < 0 {
		return 0
	}
	return int(n)
}

// SortedSIRs returns (id, sirDB) pairs sorted by descending SIR — the
// base station's view of who can receive what.
func (c *Channel) SortedSIRs() []struct {
	ID    string
	SIRdB float64
} {
	all := c.AllSIRdB()
	out := make([]struct {
		ID    string
		SIRdB float64
	}, 0, len(all))
	for id, db := range all {
		out = append(out, struct {
			ID    string
			SIRdB float64
		}{id, db})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SIRdB != out[j].SIRdB {
			return out[i].SIRdB > out[j].SIRdB
		}
		return out[i].ID < out[j].ID
	})
	return out
}
