// Workshop: a collaborative design review exercising the session
// coordinator.  Early participants chat and annotate a shared diagram
// under exclusive edit locks; a late joiner requests the archived
// session history and catches up — receiving only what its profile
// admits.  The session runs in virtual time: transport.Serve runs every
// node inline whenever the clock is driven, so nothing here waits.
//
// Run with: go run ./examples/workshop
package main

import (
	"fmt"
	"log"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func main() {
	clk := clock.NewVirtual(time.Time{})
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 9, Clock: clk})
	defer net.Close()

	coordConn, err := net.Attach("coordinator")
	if err != nil {
		log.Fatal(err)
	}
	coord := core.NewCoordinator(coordConn, session.Group{
		Objective:   "design-review:bridge-deck",
		ResultSpace: []string{"comments", "annotations", "images"},
	})
	defer coord.Close()

	attach := func(id string) *core.Client {
		conn, err := net.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		return core.NewClient(conn, core.Config{})
	}
	ana := attach("ana")
	raj := attach("raj")
	defer ana.Close()
	defer raj.Close()

	// --- Locked whiteboard editing -----------------------------------
	fmt.Println("== exclusive editing ==")
	must(ana.RequestLock("coordinator", "diagram"))
	waitLock(clk, ana, "diagram", core.LockGranted)
	fmt.Println("ana holds the diagram lock")

	must(raj.RequestLock("coordinator", "diagram"))
	waitLock(clk, raj, "diagram", core.LockWaiting)
	fmt.Println("raj queues behind ana")

	must(ana.Draw(apps.Stroke{ID: 1, Color: 1, Width: 2,
		Points: []apps.Point{{X: 0, Y: 0}, {X: 40, Y: 12}}}, ""))
	must(ana.Say("marked the stress point", ""))
	must(ana.ReleaseLock("coordinator", "diagram"))
	waitLock(clk, raj, "diagram", core.LockGranted)
	fmt.Println("lock passed to raj")
	must(raj.Draw(apps.Stroke{ID: 2, Color: 2, Width: 1,
		Points: []apps.Point{{X: 40, Y: 12}, {X: 80, Y: 3}}}, ""))
	must(raj.Say("added the load path", ""))
	must(raj.ReleaseLock("coordinator", "diagram"))

	// A diagram image for the record, plus one private aside.
	diagram := wavelet.Blocks(96, 96, 12, 5)
	obj, err := media.EncodeImage(diagram, "deck cross-section, revision C")
	if err != nil {
		log.Fatal(err)
	}
	must(ana.ShareImage("deck-rev-c", obj, ""))
	must(ana.Say("budget figures attached", `role == "finance"`))

	clk.Advance(time.Millisecond) // deliver what is in flight
	fmt.Printf("\narchived events so far: %d\n", coord.ArchivedEvents())

	// --- Late joiner catch-up -----------------------------------------
	fmt.Println("\n== late joiner ==")
	lena := attach("lena")
	defer lena.Close()
	lena.Profile().SetInterest("role", selector.S("engineering"))

	must(lena.RequestHistory("coordinator"))
	clk.Advance(time.Millisecond) // deliver what is in flight

	fmt.Printf("lena caught up: chat=%d strokes=%d filtered=%d\n",
		lena.Chat().Len(), lena.Whiteboard().Len(), lena.Stats().EventsFiltered)
	for _, l := range lena.Chat().Lines() {
		fmt.Printf("  [%s] %s\n", l.Sender, l.Text)
	}
	if res, err := lena.Viewer().Render("deck-rev-c"); err == nil {
		psnr, _ := wavelet.PSNR(diagram, res.Image)
		fmt.Printf("  diagram recovered losslessly: %v (psnr %.0f)\n", res.Lossless, psnr)
	}
	fmt.Println("\nthe finance-only line was filtered by lena's own profile;")
	fmt.Println("everything else replayed in the coordinator's archived order.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// waitLock delivers everything in flight and checks c's standing on
// the lock.
func waitLock(clk *clock.Virtual, c *core.Client, object string, want core.LockStatus) {
	if clk.Advance(time.Millisecond); c.LockState(object) != want {
		log.Fatalf("%s: %s on %s, want %s", c.ID(), c.LockState(object), object, want)
	}
}
