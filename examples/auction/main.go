// Auction: the paper's electronic-trading scenario on the wire,
// exercising the three session features.  Group formation: every bid
// is addressed to clients interested in modems, so a bidder's own
// profile decides whether it hears the auction.  Concurrency control:
// a bidder bids only while it holds the lot's lock at the coordinator,
// over the last price it has received, so no bid is lost and the price
// only moves forward.  Archival: a late joiner replays the
// coordinator's archive and sees the bids in the order the bidders
// did.  The session runs in virtual time: transport.Serve runs every
// node inline whenever the clock is driven, so nothing here waits.
//
// Run with: go run ./examples/auction
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

const (
	coordinator = "coordinator"
	lot         = "lot-42"
	opening     = 100
	// modems addresses a bid to the sub-group with closer interests,
	// avoiding the "coarse granularity" problem the paper describes.
	modems = `interest.category == "modems"`
)

func main() {
	clk := clock.NewVirtual(time.Time{})
	net := transport.NewDESNet(transport.DESNetConfig{Seed: 42, Clock: clk})
	defer net.Close()

	// The session's objective is selling computer peripherals; the
	// result space supports comments, documents and bids.
	group := session.Group{
		Objective:   "auction:computer-peripherals:modems",
		ResultSpace: []string{"comments", "documents", "bids"},
	}
	attach := func(id string) transport.Conn {
		conn, err := net.Attach(id)
		if err != nil {
			log.Fatal(err)
		}
		return conn
	}
	coord := core.NewCoordinator(attach(coordinator), group)
	defer coord.Close()

	join := func(id, category string) *core.Client {
		c := core.NewClient(attach(id), core.Config{})
		c.Profile().SetInterest("category", selector.S(category))
		fmt.Printf("%-6s (%s): joined\n", id, category)
		return c
	}
	alice := join("alice", "modems")
	bob := join("bob", "modems")
	carol := join("carol", "monitors")
	dave := join("dave", "modems")
	members := []*core.Client{alice, bob, carol, dave}
	for _, c := range members {
		defer c.Close()
	}
	fmt.Printf("\nsession %q offers bids: %v; every bid is addressed to %s\n\n",
		group.Objective, group.Offers("bids"), modems)

	// Concurrency control: each bidder queues for the lot's lock, bids
	// its increment over the last price it has received while it holds
	// the lock, then releases it and queues again.
	type bidder struct {
		c               *core.Client
		increment, left int
	}
	bidders := []*bidder{{alice, 5, 10}, {bob, 7, 10}, {dave, 3, 10}}
	for _, b := range bidders {
		must(b.c.RequestLock(coordinator, lot))
	}
	clk.Advance(time.Millisecond) // deliver what is in flight
	fmt.Printf("lock on %s: alice %s, bob %s, dave %s\n", lot, alice.LockState(lot), bob.LockState(lot), dave.LockState(lot))

	var b *bidder
	for bids := 0; bids < 30; bids++ {
		i := slices.IndexFunc(bidders, func(x *bidder) bool { return x.c.LockState(lot) == core.LockGranted })
		if i < 0 {
			log.Fatal("no bidder holds the lot's lock")
		}
		b = bidders[i]
		must(b.c.Say(fmt.Sprintf("bid %d", lastPrice(b.c)+b.increment), modems))
		must(b.c.ReleaseLock(coordinator, lot))
		if b.left--; b.left > 0 {
			must(b.c.RequestLock(coordinator, lot))
		}
		clk.Advance(time.Millisecond)
	}
	fmt.Printf("after 30 bids under the %s lock: price=%d, last bidder=%s\n", lot, lastPrice(alice), b.c.ID())
	for _, c := range members {
		fmt.Printf("  %-6s holds %2d bids, filtered %2d\n", c.ID(), c.Chat().Len(), c.Stats().EventsFiltered)
	}

	// Archival: a late joiner replays the coordinator's archive.
	erin := join("erin", "modems")
	defer erin.Close()
	must(erin.RequestHistory(coordinator))
	clk.Advance(time.Millisecond) // deliver what is in flight
	replayed, live := prices(erin), prices(alice)
	fmt.Printf("\nerin replayed %d archived bids (archive holds %d)\n", len(replayed), coord.ArchivedEvents())
	fmt.Printf("price non-decreasing across erin's replay: %v\n", slices.IsSorted(replayed))
	fmt.Printf("erin's replay equals alice's live order: %v\n", slices.Equal(replayed, live))
}

// prices reads the bids c holds, in the order it applied them.
func prices(c *core.Client) []int {
	var out []int
	for _, l := range c.Chat().Lines() {
		var p int
		if _, err := fmt.Sscanf(l.Text, "bid %d", &p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// lastPrice is the last bid c has received, or the opening price.
func lastPrice(c *core.Client) int {
	if p := prices(c); len(p) > 0 {
		return p[len(p)-1]
	}
	return opening
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
