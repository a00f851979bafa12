// Package trace generates the experiment workloads: mobility paths for
// wireless clients, collaboration event mixes, and the synthetic image
// corpus used in place of the paper's testbed content.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"adaptiveqos/internal/wavelet"
)

// MobilityPath is a piecewise-linear distance-versus-step trajectory:
// waypoints give the distance at specific steps, interpolated between
// them and held at the ends.
type MobilityPath struct {
	Steps     []int
	Distances []float64
}

// NewMobilityPath validates and builds a path.  Steps must be strictly
// increasing and match Distances in length.
func NewMobilityPath(steps []int, distances []float64) (*MobilityPath, error) {
	if len(steps) == 0 || len(steps) != len(distances) {
		return nil, fmt.Errorf("trace: path needs matching waypoints, got %d/%d", len(steps), len(distances))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			return nil, fmt.Errorf("trace: waypoint steps must increase: %v", steps)
		}
	}
	for _, d := range distances {
		if d < 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("trace: negative distance %g", d)
		}
	}
	return &MobilityPath{Steps: steps, Distances: distances}, nil
}

// At returns the distance at the given step.
func (p *MobilityPath) At(step int) float64 {
	if step <= p.Steps[0] {
		return p.Distances[0]
	}
	last := len(p.Steps) - 1
	if step >= p.Steps[last] {
		return p.Distances[last]
	}
	for i := 1; i <= last; i++ {
		if step <= p.Steps[i] {
			f := float64(step-p.Steps[i-1]) / float64(p.Steps[i]-p.Steps[i-1])
			return p.Distances[i-1] + f*(p.Distances[i]-p.Distances[i-1])
		}
	}
	return p.Distances[last]
}

// Fig8PathA is the paper's Fig 8 trajectory for client A: distance
// reduced from 100 m to 50 m over points 0–3, then increased again
// over points 3–5.
func Fig8PathA() *MobilityPath {
	p, err := NewMobilityPath([]int{0, 3, 5}, []float64{100, 50, 100})
	if err != nil {
		panic(err) // static waypoints cannot fail
	}
	return p
}

// EventKind classifies generated collaboration events.
type EventKind int

// Generated event kinds.
const (
	EventChat EventKind = iota
	EventStroke
	EventImageShare
)

// Event is one generated workload action.
type Event struct {
	Kind   EventKind
	Sender string
	// Text is set for chat events.
	Text string
	// Image is set for image-share events.
	Image *wavelet.Image
	// Description tags shared images.
	Description string
}

// Mix configures the relative frequency of event kinds.
type Mix struct {
	Chat, Stroke, ImageShare int
}

// DefaultMix is a chat-heavy session with occasional image shares.
func DefaultMix() Mix { return Mix{Chat: 6, Stroke: 3, ImageShare: 1} }

// Generator produces a deterministic event stream for a set of
// senders.
type Generator struct {
	rng     *rand.Rand
	senders []string
	mix     Mix
	total   int
	imgSeq  int
}

// NewGenerator creates a generator; seed fixes the stream.
func NewGenerator(seed int64, senders []string, mix Mix) *Generator {
	total := mix.Chat + mix.Stroke + mix.ImageShare
	if total <= 0 {
		mix = DefaultMix()
		total = mix.Chat + mix.Stroke + mix.ImageShare
	}
	return &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		senders: senders,
		mix:     mix,
		total:   total,
	}
}

// Next produces the next event.
func (g *Generator) Next() Event {
	sender := g.senders[g.rng.Intn(len(g.senders))]
	pick := g.rng.Intn(g.total)
	switch {
	case pick < g.mix.Chat:
		return Event{Kind: EventChat, Sender: sender, Text: g.sentence()}
	case pick < g.mix.Chat+g.mix.Stroke:
		return Event{Kind: EventStroke, Sender: sender}
	default:
		g.imgSeq++
		size := 32 << g.rng.Intn(2) // 32 or 64 square
		return Event{
			Kind:        EventImageShare,
			Sender:      sender,
			Image:       wavelet.Medical(size, size, int64(g.imgSeq)),
			Description: fmt.Sprintf("shared image #%d from %s", g.imgSeq, sender),
		}
	}
}

var words = []string{
	"status", "confirmed", "sector", "update", "please", "review",
	"the", "north", "gate", "is", "clear", "copy", "that", "image",
	"incoming", "hold", "position", "bid", "accepted", "closing",
}

func (g *Generator) sentence() string {
	n := 3 + g.rng.Intn(8)
	out := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, words[g.rng.Intn(len(words))]...)
	}
	return string(out)
}
