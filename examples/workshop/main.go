// Workshop: a collaborative design review exercising the session
// coordinator.  Early participants chat and annotate a shared diagram
// under exclusive edit locks; a late joiner requests the archived
// session history and catches up — receiving only what its profile
// admits.
//
// Run with: go run ./examples/workshop
package main

import (
	"fmt"
	"log"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func main() {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 9})
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
	waitLock(ana, "diagram", core.LockGranted)
	fmt.Println("ana holds the diagram lock")

	must(raj.RequestLock("coordinator", "diagram"))
	waitLock(raj, "diagram", core.LockWaiting)
	fmt.Println("raj queues behind ana")

	must(ana.Draw(apps.Stroke{ID: 1, Color: 1, Width: 2,
		Points: []apps.Point{{X: 0, Y: 0}, {X: 40, Y: 12}}}, ""))
	must(ana.Say("marked the stress point", ""))
	must(ana.ReleaseLock("coordinator", "diagram"))
	waitLock(raj, "diagram", core.LockGranted)
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

	time.Sleep(150 * time.Millisecond)
	fmt.Printf("\narchived events so far: %d\n", coord.ArchivedEvents())

	// --- Late joiner catch-up -----------------------------------------
	fmt.Println("\n== late joiner ==")
	lena := attach("lena")
	defer lena.Close()
	lena.Profile().SetInterest("role", selector.S("engineering"))

	must(lena.RequestHistory("coordinator", 0))
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st, err := lena.Viewer().Stats("deck-rev-c")
		if err == nil && st.PacketsAccepted == st.TotalPackets && lena.Chat().Len() >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

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

func waitLock(c *core.Client, object string, want core.LockStatus) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.LockState(object) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatalf("%s: timed out waiting for %s on %s", c.ID(), want, object)
}
