package transport

import (
	"fmt"
	"time"

	"adaptiveqos/internal/clock"
)

// DESNet is the simulated broadcast network on a clock.Virtual (see
// engine for the model it shares with SimNet): every send is one batch
// on the virtual heap, each copy firing at its own instant.  No
// goroutine ever sleeps: a driver advances the clock and deliveries fire
// inline, so one box can push a 100k-client session through simulated
// minutes in wall-clock seconds, deterministically — the same seed
// replays byte-identical event sequences.
//
// A node runs inline on the driving goroutine, keeping the run
// deterministic, when it attaches with AttachHandler or when Serve
// drives it, as it drives core.Client, Coordinator and the base station.
// One attached with Attach and read through Recv races the driver.
type DESNet struct{ engine }

// DESNetConfig configures a discrete-event network.
type DESNetConfig struct {
	// Seed initializes the network's random source; 0 means 1.
	Seed int64
	// DefaultLink applies to node pairs with no explicit link.
	DefaultLink Link
	// MTU bounds frame size; 0 means 64 KiB.
	MTU int
	// InboxDepth is the most packets the inbox of a node read through
	// Recv holds, which grows to that as needed; 0 means 1024.
	// Handler-mode and served nodes have no inbox.
	InboxDepth int
	// Clock is the virtual clock deliveries are scheduled on; nil
	// creates one at clock.DefaultEpoch.  Every node attached reads it
	// through its conn (Conn.Clock).  Share one clock between networks
	// and the rest of the simulated system (timeline windows, SLO
	// polls) so everything moves together.
	Clock *clock.Virtual
}

// NewDESNet creates an empty discrete-event network.
func NewDESNet(cfg DESNetConfig) *DESNet {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewVirtual(time.Time{})
	}
	n := &DESNet{}
	n.init(cfg.Seed, cfg.DefaultLink, cfg.MTU, cfg.InboxDepth, clk)
	return n
}

// AttachHandler joins a handler-mode node: h runs inline on the
// driving goroutine for every delivered packet, and may itself send.
func (n *DESNet) AttachHandler(id string, h func(Packet)) (Conn, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", id)
	}
	return n.attach(id, h)
}
