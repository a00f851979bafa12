// Telediagnosis: the paper's motivating medical scenario.  A hospital
// workstation shares a scan with a specialist on a capable wired
// client and a consulting physician on a degraded one.  Both receive
// the same semantic content at the fidelity their resources admit, and
// the session's semantic filters keep administrative chatter away from
// the clinical channel.  The session runs in virtual time:
// transport.Serve runs every client inline whenever the clock is driven,
// and each client adapts once every core.AdaptInterval of it.
//
// Run with: go run ./examples/telediagnosis
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
	clk := clock.NewVirtual(time.Time{})
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 7, Clock: clk})
	defer net.Close()

	attach := func(id string, cfg core.Config) *core.Client {
		conn, err := net.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		return core.NewClient(conn, cfg)
	}

	hospital := attach("hospital", core.Config{})
	specialist := attach("specialist", core.Config{})
	defer hospital.Close()
	defer specialist.Close()

	// The consulting physician's laptop is thrashing; its monitor
	// feeds the inference engine.
	laptopHost := hostagent.NewHost("consult-laptop")
	laptopHost.Set(hostagent.ParamCPULoad, 88)
	laptopHost.Set(hostagent.ParamPageFaults, 75)
	consultMonitor := &hostagent.Monitor{
		Client: snmp.NewClient(
			&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(laptopHost)}, snmp.V2c, "public"),
	}
	consultant := attach("consultant", core.Config{Monitor: consultMonitor})
	defer consultant.Close()

	// Profiles: clinical staff subscribe to the case topic; the ward
	// clerk only wants administrative text.
	for _, c := range []*core.Client{specialist, consultant} {
		c.Profile().SetInterest("topic", selector.S("case-1142"))
		c.Profile().SetInterest("role", selector.S("clinical"))
	}
	clerk := attach("ward-clerk", core.Config{})
	defer clerk.Close()
	clerk.Profile().SetInterest("role", selector.S("admin"))

	// Adaptation: the consultant's engine sees the thrashing laptop on
	// its next tick.
	clk.Advance(core.AdaptInterval)
	decision := consultant.LastDecision()
	fmt.Printf("consultant adaptation: %d/16 packets (rules %v)\n",
		decision.EffectiveBudget(16), decision.Fired)

	// The hospital shares the scan with clinical staff only.
	scan := wavelet.Medical(256, 256, 1142)
	obj, err := media.EncodeImage(scan, "CT slice 42, suspected lesion left lobe")
	if err != nil {
		log.Fatal(err)
	}
	if err := hospital.ShareImage("ct-1142-42", obj, `role == "clinical"`); err != nil {
		log.Fatal(err)
	}
	if err := hospital.Say("slide uploaded, please review", `role == "clinical"`); err != nil {
		log.Fatal(err)
	}
	if err := hospital.Say("billing code updated", `role == "admin"`); err != nil {
		log.Fatal(err)
	}

	clk.Advance(time.Millisecond) // deliver everything in flight

	report := func(c *core.Client) {
		st, err := c.Viewer().Stats("ct-1142-42")
		if err != nil {
			fmt.Printf("%-12s no scan received (filtered), chat=%d\n", c.ID(), c.Chat().Len())
			return
		}
		res, err := c.Viewer().Render("ct-1142-42")
		if err != nil {
			log.Fatal(err)
		}
		psnr, _ := wavelet.PSNR(scan, res.Image)
		fmt.Printf("%-12s packets=%2d/16  bpp=%.3f  psnr=%.1f dB  chat=%d\n",
			c.ID(), st.PacketsAccepted, st.BPP, psnr, c.Chat().Len())
	}
	report(specialist)
	report(consultant)
	report(clerk)

	fmt.Println("\nthe specialist sees the full-fidelity scan; the overloaded")
	fmt.Println("consultant sees a reduced-rate rendering of the same content;")
	fmt.Println("the ward clerk receives only the administrative line.")
}
