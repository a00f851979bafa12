// Quickstart: the framework's core ideas in one file.
//
//  1. Semantic messaging — messages are addressed to profiles, not
//     names (the paper's Figure 3 accept/reject/transform example).
//  2. Adaptive QoS — a host under rising load accepts fewer and fewer
//     image packets, trading quality for feasibility.  The clients run
//     in virtual time: transport.Serve runs them inline whenever the
//     clock is driven, and each adapts to its host once every
//     core.AdaptInterval of it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func main() {
	// --- Part 1: semantic interpretation (Figure 3) ---------------------
	fmt.Println("== semantic interpretation ==")
	sel := selector.MustCompile(
		`media == "video" and color == true and encoding == "MPEG2" and size <= 1048576`)

	// Slices, not a map: the table prints in the figure's order.
	names := []string{"client-1 (color MPEG2)", "client-2 (B/W, no encoding)", "client-3 (color JPEG)"}
	profiles := []selector.Attributes{{
		"media": selector.S("video"), "color": selector.B(true),
		"encoding": selector.S("MPEG2"), "size": selector.N(1 << 20),
	}, {
		"media": selector.S("video"), "color": selector.B(false),
		"size": selector.N(1 << 20),
	}, {
		"media": selector.S("video"), "color": selector.B(true),
		"encoding": selector.S("JPEG"), "size": selector.N(1 << 20),
	}}
	for i, p := range profiles {
		fmt.Printf("  %-28s accepts=%v\n", names[i], sel.Matches(p))
	}
	// Client 3 advertises an MPEG2→JPEG transformation, so the relaxed
	// selector (encoding reachable via its transformers) matches.
	relaxed := selector.MustCompile(
		`media == "video" and color == true and encoding in ["MPEG2", "JPEG"] and size <= 1048576`)
	fmt.Printf("  %-28s accepts=%v (with MPEG2→JPEG transform)\n\n",
		"client-3 + capability", relaxed.Matches(profiles[2]))

	// --- Part 2: adaptation under load ----------------------------------
	fmt.Println("== adaptive image sharing ==")

	// A simulated host exposes CPU load and page faults through the
	// embedded SNMP agent; the client's monitor samples it.
	host := hostagent.NewHost("laptop")
	monitor := &hostagent.Monitor{
		Client: snmp.NewClient(
			&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, "public"),
	}

	// Two clients on a simulated multicast network.
	clk := clock.NewVirtual(time.Time{})
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 1, Clock: clk})
	defer net.Close()
	connA, err := net.Attach("sender")
	if err != nil {
		log.Fatal(err)
	}
	connB, err := net.Attach("receiver")
	if err != nil {
		log.Fatal(err)
	}
	sender := core.NewClient(connA, core.Config{})
	receiver := core.NewClient(connB, core.Config{Monitor: monitor})
	defer sender.Close()
	defer receiver.Close()

	img := wavelet.Medical(128, 128, 1)
	obj, err := media.EncodeImage(img, "reference scan")
	if err != nil {
		log.Fatal(err)
	}

	for i, load := range []float64{20, 60, 85, 99} {
		host.Set(hostagent.ParamCPULoad, load)
		host.Set(hostagent.ParamPageFaults, 10)
		clk.Advance(core.AdaptInterval) // the receiver's next tick samples the host
		decision := receiver.LastDecision()
		object := fmt.Sprintf("scan-%d", i)
		if err := sender.ShareImage(object, obj, ""); err != nil {
			log.Fatal(err)
		}
		clk.Advance(time.Millisecond) // deliver the share

		st, err := receiver.Viewer().Stats(object)
		if err != nil {
			log.Fatal(err)
		}
		res, err := receiver.Viewer().Render(object)
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := wavelet.PSNR(img, res.Image)
		fmt.Printf("  cpu=%3.0f%%  budget=%2d/16  accepted=%2d  bpp=%.3f  CR=%.1f  psnr=%.1f dB\n",
			load, decision.EffectiveBudget(16), st.PacketsAccepted, st.BPP,
			st.CompressionRatio, psnr)
	}
	fmt.Println("\nhigher load → fewer packets accepted → lower quality, gracefully.")
}
