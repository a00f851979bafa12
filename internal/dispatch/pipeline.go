package dispatch

import (
	"errors"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/selector"
)

// ErrSkip stops the pipeline for the current client without error: the
// client is simply not a recipient of this message (selector mismatch,
// tier below service, departed mid-delivery).  Pipeline.Run maps it to
// nil so skips never surface as batch failures.
var ErrSkip = errors.New("dispatch: skip client")

// Task is one per-client delivery in flight: the message being
// relayed, the client it is for, and the state the stages accumulate
// on the way to the transmit adapter.  Tier is broker policy expressed
// as an opaque ordinal here (the radio layer owns its meaning).
type Task struct {
	MsgID uint64
	To    string
	Msg   *message.Message
	Flat  selector.Attributes
	Tier  int
	// Node names the broker executing this pipeline in flight-recorder
	// hop records; empty disables hop recording for the task.
	Node string
}

// Stage is one step of a delivery pipeline.  A stage may mutate the
// task, return ErrSkip to drop the client silently, or return another
// error to fail this client's delivery (reported to the batch, other
// clients still attempted).
type Stage func(*Task) error

// Pipeline chains stages over one Task.  The canonical broker
// pipeline is match → infer-tier → transform → transmit, but callers
// compose whatever subset a path needs.
type Pipeline struct {
	stages []Stage
}

// NewPipeline builds a pipeline from stages, run in order.
func NewPipeline(stages ...Stage) Pipeline {
	return Pipeline{stages: stages}
}

// Run executes the stages until one skips or fails.
func (p Pipeline) Run(t *Task) error {
	for _, s := range p.stages {
		if err := s(t); err != nil {
			if errors.Is(err, ErrSkip) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Match returns the selector-match stage: it resolves the client's
// flattened profile through lookup (the registry layer) and evaluates
// the message selector against it, skipping non-matching clients.
// The span feeds the match-stage latency histogram.
func Match(lookup func(id string) (selector.Attributes, bool)) Stage {
	return func(t *Task) error {
		sp := obs.StartStage(t.MsgID, obs.StageMatch)
		flat, ok := lookup(t.To)
		if !ok {
			sp.End()
			return ErrSkip
		}
		t.Flat = flat
		if t.Msg != nil && !t.Msg.MatchProfile(flat) {
			sp.End()
			return ErrSkip
		}
		sp.End()
		if t.Node != "" {
			obs.AppendHop(t.MsgID, t.Node, obs.StageMatch)
		}
		return nil
	}
}
