package basestation

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
)

// A segment's fan-out calls its per-member function exactly once for
// every member the message's selector admits but the one it came from,
// in the registry's ascending ID order.
func TestFanOutCoverage(t *testing.T) {
	c := newBareCell(t, 0, 100)
	var got []string
	err := c.bs.wiredSeg.fanOut(&message.Message{Kind: message.KindEvent, Sender: "m07"}, func(id string) error {
		got = append(got, id)
		return nil
	}, "m07")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(c.bs.Clients(), func(id string) bool { return id == "m07" })
	if !slices.Equal(got, want) {
		t.Fatalf("the fan-out served %v, want every member but the sender once, in order: %v", got, want)
	}
}

// One failing member does not starve the rest: every member is still
// attempted, and the first error is the one returned.
func TestFanOutErrorDoesNotStarvePeers(t *testing.T) {
	c := newBareCell(t, 0, 6)
	boom, bang := errors.New("boom"), errors.New("bang")
	handled := 0
	err := c.bs.wiredSeg.fanOut(&message.Message{Kind: message.KindEvent, Sender: "pub"}, func(id string) error {
		handled++
		switch id {
		case "m01":
			return boom
		case "m03":
			return bang
		}
		return nil
	}, "")
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom, the first member's error", err)
	}
	if handled != 6 {
		t.Fatalf("handled %d of 6: one failing member starved the rest", handled)
	}
}

func TestFanOutEmpty(t *testing.T) {
	c := newBareCell(t, 0, 0)
	if err := c.bs.wiredSeg.fanOut(&message.Message{Kind: message.KindEvent, Sender: "pub"}, func(string) error {
		t.Error("fn called for an empty cell")
		return nil
	}, ""); err != nil {
		t.Fatal(err)
	}
}

// TestStationStartsNoGoroutine: the station is a handler.  On a DESNet
// transport.Serve runs both segments' handlers on the clock's driving
// goroutine, and the station serves its members there itself, so
// building one starts no goroutine, however many Ps there are.
func TestStationStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, wiredNet, radioNet := newNets(t)
	wired, wireless := attach(t, wiredNet, "bs"), attach(t, radioNet, "bs")
	before := runtime.NumGoroutine()
	bs := New("bs", wired, wireless, radio.NewChannel(radio.Params{}), Config{})
	after := runtime.NumGoroutine()
	bs.Close()
	if after != before {
		t.Errorf("building a station at GOMAXPROCS=4 took the goroutines from %d to %d, want no change", before, after)
	}
}
