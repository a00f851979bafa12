package main

import (
	"fmt"
	"math/rand"
	"time"

	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// workload is one named set of inputs plus the system built to receive
// them.  The runner calls the methods in declaration order; inputs are
// generated from the seed in newWorkload/setup and nothing the program
// sees afterwards depends on anything else.
type workload interface {
	// generate materialises every input from the seed.  Both it and
	// setup count into setup_s.
	generate() error
	// inputDigest fingerprints the generated inputs.
	inputDigest() string
	// setup builds nets, clients and base station from the generated
	// inputs and warms every cache and lazy initialiser.
	setup() error
	// timed drives load for about d and fills the load-side fields of
	// ph.  The traced pass calls it again under the program's own obs
	// spans.
	timed(d time.Duration, ph *phase)
	// latency runs the one-outstanding phase for about d and returns
	// completion times in microseconds (nil when the timed phase
	// already produced them).
	latency(d time.Duration) []float64
	// check drains the system and runs the oracles.
	check() verdict
	// ladder walks the pipeline through public functions on a sample
	// of the workload's own inputs, recording spans, and reports the
	// layer metrics it can measure that way.  It returns the ladder's
	// single-goroutine cost in microseconds per delivery (0 = none).
	ladder(tr *tracer, lay layers) float64
	// counters reports layer metrics read from counters the program
	// already exports, over the timed phase ph.
	counters(ph *phase, lay layers)
	close()
}

// verdict is what the oracles found.
type verdict struct {
	attempted uint64   // ops attempted (publish calls)
	failed    uint64   // ops that failed by the failed_share definition
	expected  uint64   // deliveries the oracle expects
	applied   uint64   // deliveries applied
	lossless  bool     // a non-zero failed share on this workload is an error
	wrong     bool     // lossy workload: an oracle other than the drain deadline failed
	invalid   string   // open loop: why the measurement does not count ("" = valid)
	notes     []string // one line per mismatch
}

func (v *verdict) failf(ops uint64, format string, args ...any) {
	v.failed += ops
	if len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// randText draws a chat line of 48-96 bytes that starts with tag, so
// an oracle can tell from a retained line which op it came from.
func randText(rng *rand.Rand, tag string) string {
	const letters = "abcdefghijklmnopqrstuvwxyz     "
	b := []byte(tag)
	for want := 48 + rng.Intn(49); len(b) < want; {
		b = append(b, letters[rng.Intn(len(letters))])
	}
	return string(b)
}

// netBytes sums the bytes the nets delivered, over all nodes.
func netBytes(nets ...*transport.SimNet) (bytes uint64) {
	for _, n := range nets {
		for _, id := range n.NodeIDs() {
			bytes += n.Stats(id).Bytes
		}
	}
	return
}

// failOnNetLoss fails the verdict for every frame a lossless net
// dropped on a link or shed at a full inbox.
func (v *verdict) failOnNetLoss(nets ...*transport.SimNet) {
	for _, n := range nets {
		for _, id := range n.NodeIDs() {
			if st := n.Stats(id); st.Overflow != 0 || st.Dropped != 0 {
				v.failf(st.Overflow+st.Dropped, "%s inbox overflow %d dropped %d", id, st.Overflow, st.Dropped)
			}
		}
	}
}

// layers collects per-layer metric values by name.
type layers map[string]float64

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "chat-wired":
		return newChatWired(seed), nil
	case "image-tiered":
		return newImageTiered(seed), nil
	case "bs-relay":
		return newBSRelay(seed), nil
	case "chat-lossy-repair":
		return newChatLossy(seed), nil
	case "sim-lecture":
		return newSimLecture(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quiesce puts the program's process-global switches in the state the
// end-to-end phases are measured in: obs, flight trace, SLO and
// timeline off.
func quiesce() {
	obs.SetEnabled(false)
	obs.SetTraceEnabled(false)
	slo.SetEnabled(false)
	timeline.Disable()
}
