// Package radio implements the simulated wireless channel used by the
// base-station experiments: distance-based path gain, the paper's SIR
// equation (eq. 1), SIR-threshold modality tiers, and power control in
// the spirit of Goodman–Mandayam's "Power Control for Wireless Data".
//
// For client i transmitting to the base station,
//
//	SIR_i = P_i·G_i / (Σ_{j≠i} P_j·G_j + σ²_i)
//
// where P is transmit power, G is path gain, and the noise factor σ²_i
// is derived from the client's transmit power (σ² = P/10^k, as in the
// paper) plus an optional absolute noise floor.  With the
// power-proportional noise term and no floor, scaling every client's
// power by the same factor leaves every SIR unchanged — the property
// behind the paper's claim that a uniform power reduction raises net
// utility (same SIR, less energy) for all clients.
package radio

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Channel errors.
var (
	ErrUnknownClient = errors.New("radio: unknown client")
	ErrDuplicate     = errors.New("radio: client already present")
	ErrBadParam      = errors.New("radio: invalid parameter")
)

// Params configures the channel model.
type Params struct {
	// PathLossExponent is α in G = RefGain · d^−α (default 3, an urban
	// micro-cell value).
	PathLossExponent float64
	// RefGain is the path gain at 1 m (default 1).
	RefGain float64
	// NoiseExp is k in σ² = P/10^k (default 10: the self-noise term sits
	// 100 dB below the transmit power, so multi-client scenarios are
	// interference-limited while a lone client still sees finite SIR).
	NoiseExp float64
	// NoiseFloor is an absolute additive noise term in watts (default 0).
	NoiseFloor float64
	// MinDistance clamps distances to avoid the d→0 singularity
	// (default 1 m).
	MinDistance float64
}

func (p Params) withDefaults() Params {
	if p.PathLossExponent == 0 {
		p.PathLossExponent = 3
	}
	if p.RefGain == 0 {
		p.RefGain = 1
	}
	if p.NoiseExp == 0 {
		p.NoiseExp = 10
	}
	if p.MinDistance == 0 {
		p.MinDistance = 1
	}
	return p
}

// Client is one wireless transmitter.
type Client struct {
	ID string
	// Distance from the base station in meters.
	Distance float64
	// Power is the transmit power in watts.
	Power float64
	// Battery is the remaining energy in joules; meaningful only when
	// hasBattery is set (see Channel.SetBattery).
	Battery    float64
	hasBattery bool
	// gain is RefGain·Distance^−α, set with Distance.
	gain float64
}

// Channel is the interference-limited uplink shared by the wireless
// clients of one base station.  It is safe for concurrent use.
type Channel struct {
	mu      sync.RWMutex
	params  Params
	clients map[string]*Client
	// members is clients in ID order, kept by Join and Leave.  Sums over
	// the cell run over it: float addition is not associative, so
	// ranging over the map would let an SIR wander in its last bits
	// from call to call.
	members []*Client
	// noiseDiv is 10^NoiseExp.
	noiseDiv float64
}

// NewChannel creates a channel with the given parameters.
func NewChannel(p Params) *Channel {
	p = p.withDefaults()
	return &Channel{params: p, clients: make(map[string]*Client), noiseDiv: math.Pow(10, p.NoiseExp)}
}

// Params returns the channel parameters.
func (c *Channel) Params() Params {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.params
}

// Join adds a client.
func (c *Channel) Join(id string, distance, power float64) error {
	if distance < 0 || power <= 0 || math.IsNaN(distance) || math.IsNaN(power) {
		return fmt.Errorf("%w: distance %g, power %g", ErrBadParam, distance, power)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.clients[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	cl := &Client{ID: id, Power: power}
	c.setDistanceLocked(cl, distance)
	c.clients[id] = cl
	c.members = slices.Insert(c.members, c.memberIndexLocked(id), cl)
	return nil
}

// memberIndexLocked returns where id sits, or would sit, in members.
func (c *Channel) memberIndexLocked(id string) int {
	return sort.Search(len(c.members), func(i int) bool { return c.members[i].ID >= id })
}

// Leave removes a client, reporting whether it was present.
func (c *Channel) Leave(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.clients[id]
	if ok {
		delete(c.clients, id)
		at := c.memberIndexLocked(id)
		c.members = slices.Delete(c.members, at, at+1)
	}
	return ok
}

// Len returns the number of clients.
func (c *Channel) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.clients)
}

// IDs returns the client IDs, sorted.
func (c *Channel) IDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, len(c.members))
	for i, cl := range c.members {
		ids[i] = cl.ID
	}
	return ids
}

// SetDistance moves a client (mobility).
func (c *Channel) SetDistance(id string, d float64) error {
	if d < 0 || math.IsNaN(d) {
		return fmt.Errorf("%w: distance %g", ErrBadParam, d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, id)
	}
	c.setDistanceLocked(cl, d)
	return nil
}

// SetPower changes a client's transmit power.
func (c *Channel) SetPower(id string, p float64) error {
	if p <= 0 || math.IsNaN(p) {
		return fmt.Errorf("%w: power %g", ErrBadParam, p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, id)
	}
	cl.Power = p
	return nil
}

// Get returns a copy of a client's state.
func (c *Channel) Get(id string) (Client, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.clients[id]
	if !ok {
		return Client{}, fmt.Errorf("%w: %q", ErrUnknownClient, id)
	}
	return *cl, nil
}

// setDistanceLocked places cl at d and caches its path gain, so an SIR
// reads the gains rather than raising every member's distance to a
// power.
func (c *Channel) setDistanceLocked(cl *Client, d float64) {
	cl.Distance = d
	d = max(d, c.params.MinDistance)
	cl.gain = c.params.RefGain * math.Pow(d, -c.params.PathLossExponent)
}

// SIR returns the linear signal-to-interference ratio for a client per
// the paper's eq. 1.
func (c *Channel) SIR(id string) (float64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.clients[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownClient, id)
	}
	return c.sirLocked(cl), nil
}

func (c *Channel) sirLocked(cl *Client) float64 {
	signal := cl.Power * cl.gain
	var interference float64
	for _, other := range c.members {
		if other != cl {
			interference += other.Power * other.gain
		}
	}
	noise := c.params.NoiseFloor + cl.Power/c.noiseDiv
	return signal / (interference + noise)
}

// SIRdB returns the SIR in decibels.
func (c *Channel) SIRdB(id string) (float64, error) {
	sir, err := c.SIR(id)
	if err != nil {
		return 0, err
	}
	return 10 * math.Log10(sir), nil
}

// AllSIRdB returns every client's SIR in dB, keyed by ID.
func (c *Channel) AllSIRdB() map[string]float64 {
	out := make(map[string]float64)
	for _, id := range c.IDs() {
		if db, err := c.SIRdB(id); err == nil {
			out[id] = db
		}
	}
	return out
}
