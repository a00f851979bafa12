// Auction: the paper's electronic-trading scenario, exercising group
// formation (objective + result space + interest filters) and
// concurrency control.  Bidders with closer interests form a
// sub-group; concurrent bids on the same lot are arbitrated by
// optimistic versioning so no bid is silently lost.
//
// Run with: go run ./examples/auction
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
)

func main() {
	// Group formation: the session's objective is selling computer
	// peripherals; the result space supports comments and documents;
	// the filter narrows to clients interested in modems, avoiding the
	// "coarse granularity" problem the paper describes.
	lotGroup := session.Group{
		Objective:   "auction:computer-peripherals:modems",
		ResultSpace: []string{"comments", "documents", "bids"},
		Filter:      selector.MustCompile(`interest.category == "modems"`),
	}
	s := session.New(lotGroup)

	join := func(id, category string) *profile.Profile {
		p := profile.New(id)
		p.Interests.SetString("category", category)
		if err := s.Join(p); err != nil {
			fmt.Printf("%-8s (%s): %v\n", id, category, err)
			return nil
		}
		fmt.Printf("%-8s (%s): joined\n", id, category)
		return p
	}
	join("alice", "modems")
	join("bob", "modems")
	join("carol", "monitors") // filtered: wrong interests
	join("dave", "modems")

	fmt.Printf("\nsession %q has %d members; offers bids: %v\n\n",
		s.Group.Objective, s.Members(), s.Group.Offers("bids"))

	// Concurrency control: the lot's current price is a shared object
	// under optimistic versioning.  Three bidders race; every accepted
	// bid is based on the version it outbids, so no bid is lost and the
	// price only moves forward.
	store := session.NewVersionStore()
	store.Update("lot-42", "auctioneer", 0, priceBytes(100))

	var wg sync.WaitGroup
	bid := func(bidder string, increment uint32, rounds int) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for {
				cur := store.Get("lot-42")
				next := price(cur.Data) + increment
				_, err := store.Update("lot-42", bidder, cur.Version, priceBytes(next))
				if err == nil {
					if _, err := s.Commit(bidder, "auction", "lot-42", priceBytes(next)); err != nil {
						log.Fatal(err)
					}
					break
				}
				if !errors.Is(err, session.ErrStale) {
					log.Fatal(err)
				}
				// Outbid while composing: rebase on the new price.
			}
		}
	}
	wg.Add(3)
	go bid("alice", 5, 10)
	go bid("bob", 7, 10)
	go bid("dave", 3, 10)
	wg.Wait()

	final := store.Get("lot-42")
	fmt.Printf("after 30 concurrent bids: price=%d, version=%d, last bidder=%s\n",
		price(final.Data), final.Version, final.Writer)
	if final.Version != 31 { // 1 opening + 30 bids, none lost
		log.Fatalf("expected version 31, got %d", final.Version)
	}

	// The archive orders every bid; a late joiner replays it.
	history := s.History(0)
	fmt.Printf("archived events: %d (strictly ordered)\n", len(history))
	prev := uint32(0)
	monotone := true
	for _, ev := range history {
		p := price(ev.Payload)
		if p < prev {
			monotone = false
		}
		prev = p
	}
	fmt.Printf("price strictly non-decreasing across history: %v\n", monotone)

	// Exclusive arbitration: only the lock holder may edit the lot's
	// description document.
	var locks session.ObjectLocks
	if err := locks.TryAcquire("lot-42-descr", "alice"); err != nil {
		log.Fatal(err)
	}
	err := locks.TryAcquire("lot-42-descr", "bob")
	fmt.Printf("\nbob tries to edit while alice holds the lock: %v\n", err)
	next, _ := locks.Release("lot-42-descr", "alice")
	fmt.Printf("alice releases; the lock passes to: %s\n", next)
}

func priceBytes(v uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, v)
}

func price(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
