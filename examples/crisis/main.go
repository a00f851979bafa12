// Crisis management: the paper's wireless scenario.  Field responders
// on wireless devices join a collaboration session through a base
// station.  As responders crowd the cell and move, each one's SIR —
// and therefore the modality the base station forwards — changes:
// full imagery, sketch + text, or text only.  A responder low on
// battery announces a text-only preference and is served text; power
// control conserves batteries without losing service; a responder who
// leaves the cell takes its interference with it.
//
// Run with: go run ./examples/crisis
package main

import (
	"fmt"
	"log"
	"time"

	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func main() {
	// Both segments run on one virtual clock, and every node inline on
	// this goroutine as the clock advances: the run is deterministic.
	// Every client ticks, so the clock's heap never drains; each step
	// advances it by a fixed 200 ms instead.  The radio segment is a
	// star: its links are down but those between the base station and
	// each responder, so a responder reaches the others only through it.
	clk := clock.NewVirtual(time.Time{})
	wiredNet := transport.NewDESNet(transport.DESNetConfig{Seed: 3, Clock: clk})
	radioNet := transport.NewDESNet(transport.DESNetConfig{Seed: 4, Clock: clk, DefaultLink: transport.Link{Down: true}})
	defer wiredNet.Close()
	defer radioNet.Close()

	// Command post: a wired client.
	cpConn, err := wiredNet.Attach("command-post")
	if err != nil {
		log.Fatal(err)
	}
	commandPost := core.NewClient(cpConn, core.Config{})
	defer commandPost.Close()

	// Base station bridging the field radio segment.
	bsWired, err := wiredNet.Attach("bs")
	if err != nil {
		log.Fatal(err)
	}
	bsRF, err := radioNet.Attach("bs")
	if err != nil {
		log.Fatal(err)
	}
	bs := basestation.New("bs", bsWired, bsRF, radio.NewChannel(radio.Params{}), basestation.Config{})
	defer bs.Close()

	// Field responders join at staggered ranges.
	type responder struct {
		client   *core.Client
		distance float64
	}
	var field []responder
	for i, d := range []float64{40, 55, 70} {
		id := fmt.Sprintf("responder-%d", i+1)
		conn, err := radioNet.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		radioNet.SetLinkBoth("bs", id, transport.Link{})
		c := core.NewClient(conn, core.Config{})
		defer c.Close()
		assess, err := bs.Join(profile.New(id), d, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s joined at %3.0fm: SIR %6.1f dB → tier %s\n",
			id, d, assess.SIRdB, assess.Tier)
		field = append(field, responder{client: c, distance: d})
	}

	// Responder 1 shares a site photo from the field over the radio.
	// Its uplink SIR decides what the base station passes on to the
	// session.
	r1 := field[0].client
	photo := wavelet.Medical(128, 128, 99)
	obj, err := media.EncodeImage(photo, "collapsed facade, north entrance blocked")
	if err != nil {
		log.Fatal(err)
	}
	if err := r1.ShareImage("site-photo-1", obj, ""); err != nil {
		log.Fatal(err)
	}
	clk.Advance(200 * time.Millisecond)

	fmt.Printf("\ncommand post received: images=%d inbox=%d\n",
		len(commandPost.Viewer().Objects()), commandPost.Inbox().Len())
	if d, ok := commandPost.Inbox().Latest(); ok {
		fmt.Printf("  latest delivery: %s — %q\n", d.Object, d.Object.Description)
	}

	// Responder 1 moves closer (the Fig 8 trajectory): its tier improves.
	fmt.Println("\nresponder-1 moves closer to the base station:")
	for _, d := range []float64{40, 30, 20} {
		if err := bs.SetDistance("responder-1", d); err != nil {
			log.Fatal(err)
		}
		a, err := bs.Assess("responder-1")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  at %3.0fm: SIR %6.1f dB → tier %s\n", d, a.SIRdB, a.Tier)
	}

	// The command post shares the site map.  Responder 1, close in, is
	// served the image itself; it then switches to text mode to save
	// battery — a change in preference, announced to the base station —
	// and the next share reaches it as text.
	share := func(object string) {
		plan, err := media.EncodeImage(wavelet.Circles(64, 64), "site map, sectors A-D")
		if err != nil {
			log.Fatal(err)
		}
		if err := commandPost.ShareImage(object, plan, ""); err != nil {
			log.Fatal(err)
		}
		clk.Advance(200 * time.Millisecond)
	}
	fmt.Println("\ncommand post shares the site map; responder-1 then asks for text only:")
	share("site-map-1")
	fmt.Printf("  before the announce: responder-1 holds images=%d inbox=%d\n",
		len(r1.Viewer().Objects()), r1.Inbox().Len())
	r1.Profile().SetPreference("modality", selector.S(string(media.KindText)))
	if err := r1.AnnounceProfile("bs"); err != nil {
		log.Fatal(err)
	}
	clk.Advance(200 * time.Millisecond)
	share("site-map-2")
	fmt.Printf("  after the announce:  responder-1 holds images=%d inbox=%d\n",
		len(r1.Viewer().Objects()), r1.Inbox().Len())
	if d, ok := r1.Inbox().Latest(); ok {
		fmt.Printf("  latest delivery: %s — %q\n", d.Object, d.Object.Description)
	}

	// The base station runs the distributed power-control iteration to
	// its fixed point: clients above the target back off (conserving
	// battery), clients below raise power, and the whole cell settles
	// near the feasible target.
	before := bs.Channel().AllSIRdB()
	var powers map[string]float64
	for i := 0; i < 25; i++ {
		powers, err = bs.PowerControl(-4, 0.01, 2)
		if err != nil {
			log.Fatal(err)
		}
	}
	after := bs.Channel().AllSIRdB()
	fmt.Println("\npower control to target -4 dB (25 iterations):")
	for _, id := range bs.Clients() {
		fmt.Printf("  %-12s power → %.3f W, SIR %6.1f → %6.1f dB\n",
			id, powers[id], before[id], after[id])
	}

	// Responder 3 leaves the cell: one interferer fewer for the rest.
	if err := bs.Leave("responder-3"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresponder-3 leaves the cell:")
	for _, m := range bs.Channel().SortedSIRs() {
		fmt.Printf("  %-12s SIR %6.1f → %6.1f dB\n", m.ID, after[m.ID], m.SIRdB)
	}

	st := bs.Stats()
	fmt.Printf("\nbase station: uplink=%d full=%d sketch=%d text=%d downlink=%d\n",
		st.UplinkEvents, st.ForwardFullImage, st.ForwardSketch, st.ForwardText,
		st.DownlinkUnicasts)
}
