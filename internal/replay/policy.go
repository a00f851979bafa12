package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"adaptiveqos/internal/core"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/radio"
)

// RepairPolicy is the gap-repair candidate: off, or on with a stall
// timeout and a retry budget (core.RepairOptions' two schedule knobs;
// the backoff and its jitter follow from the timeout).
type RepairPolicy struct {
	Enabled        bool  `json:"enabled"`
	StallTimeoutMS int64 `json:"stall_timeout_ms,omitempty"`
	MaxRetries     int   `json:"max_retries,omitempty"`
}

// Bounds on a loaded repair policy.  Past them a value is no candidate
// anyone sweeps, and unchecked it overflows StallTimeout's Duration or
// spins core.RepairOptions.AbandonSpan's retry loop.
const (
	maxStallTimeoutMS = 60_000
	maxRepairRetries  = 100
)

// validate rejects repair values outside [0, bound]; zero selects the
// default.
func (r RepairPolicy) validate() error {
	if r.StallTimeoutMS < 0 || r.StallTimeoutMS > maxStallTimeoutMS {
		return fmt.Errorf("stall_timeout_ms %d outside [0, %d]", r.StallTimeoutMS, maxStallTimeoutMS)
	}
	if r.MaxRetries < 0 || r.MaxRetries > maxRepairRetries {
		return fmt.Errorf("max_retries %d outside [0, %d]", r.MaxRetries, maxRepairRetries)
	}
	return nil
}

// StallTimeout returns the stall timeout as a duration (default 200ms,
// matching core.RepairOptions).
func (r RepairPolicy) StallTimeout() time.Duration {
	if r.StallTimeoutMS <= 0 {
		return 200 * time.Millisecond
	}
	return time.Duration(r.StallTimeoutMS) * time.Millisecond
}

// options returns the kernel repair options the policy stands for.
func (r RepairPolicy) options() core.RepairOptions {
	return core.RepairOptions{StallTimeout: r.StallTimeout(), MaxRetries: r.MaxRetries}
}

// Policy is one candidate configuration swept by the replay: the
// repair knobs, the inference policy's parameters and the radio tier
// thresholds.  The zero value of each component means "that
// subsystem's defaults".
type Policy struct {
	Name      string           `json:"name"`
	Repair    RepairPolicy     `json:"repair"`
	Inference inference.Params `json:"inference"`
	Tier      radio.Thresholds `json:"tier"`
}

// withDefaults fills unset components.
func (p Policy) withDefaults() Policy {
	p.Inference = p.Inference.WithDefaults()
	if p.Tier == (radio.Thresholds{}) {
		p.Tier = radio.DefaultThresholds()
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("repair=%s budget=%d tier=%+.0f/%+.0f/%+.0f",
			p.repairLabel(), p.Inference.MaxPackets,
			p.Tier.TextDB, p.Tier.SketchDB, p.Tier.ImageDB)
	}
	return p
}

func (p Policy) repairLabel() string {
	if !p.Repair.Enabled {
		return "off"
	}
	return fmt.Sprintf("%v x%d", p.Repair.StallTimeout(), p.Repair.MaxRetries)
}

// DefaultGrid is the standard sweep: repair {off, 100ms×2, 100ms×6,
// 250ms×2, 250ms×6} × inference budget {16, 8} × tier thresholds
// {default, tight (+2 dB), loose (−2 dB)} — 30 candidates.
func DefaultGrid() []Policy {
	repairs := []RepairPolicy{
		{Enabled: false},
		{Enabled: true, StallTimeoutMS: 100, MaxRetries: 2},
		{Enabled: true, StallTimeoutMS: 100, MaxRetries: 6},
		{Enabled: true, StallTimeoutMS: 250, MaxRetries: 2},
		{Enabled: true, StallTimeoutMS: 250, MaxRetries: 6},
	}
	budgets := []int{16, 8}
	def := radio.DefaultThresholds()
	tiers := []radio.Thresholds{
		def,
		{TextDB: def.TextDB + 2, SketchDB: def.SketchDB + 2, ImageDB: def.ImageDB + 2},
		{TextDB: def.TextDB - 2, SketchDB: def.SketchDB - 2, ImageDB: def.ImageDB - 2},
	}
	var grid []Policy
	for _, r := range repairs {
		for _, b := range budgets {
			for _, t := range tiers {
				grid = append(grid, Policy{
					Repair:    r,
					Inference: inference.Params{MaxPackets: b},
					Tier:      t,
				}.withDefaults())
			}
		}
	}
	return grid
}

// LoadGrid reads a JSON policy grid: either a bare array of Policy or
// an object {"policies": [...]}.  Names must be unique and repair
// values within their bounds.
func LoadGrid(r io.Reader) ([]Policy, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("replay: read grid: %w", err)
	}
	var grid []Policy
	if err := json.Unmarshal(raw, &grid); err != nil {
		var wrapped struct {
			Policies []Policy `json:"policies"`
		}
		if err2 := json.Unmarshal(raw, &wrapped); err2 != nil || wrapped.Policies == nil {
			return nil, fmt.Errorf("replay: parse grid: %w", err)
		}
		grid = wrapped.Policies
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("replay: empty policy grid")
	}
	seen := make(map[string]bool, len(grid))
	for i := range grid {
		if err := grid[i].Repair.validate(); err != nil {
			return nil, fmt.Errorf("replay: policy %d repair: %w", i, err)
		}
		grid[i] = grid[i].withDefaults()
		if seen[grid[i].Name] {
			return nil, fmt.Errorf("replay: duplicate policy name %q", grid[i].Name)
		}
		seen[grid[i].Name] = true
	}
	return grid, nil
}
