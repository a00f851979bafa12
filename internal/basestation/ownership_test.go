package basestation

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// bareCell is a base station whose members and wired peers are bare
// attachments: what arrives in their inboxes is exactly what the
// substrate was handed.
type bareCell struct {
	clk      *clock.Virtual
	radioNet *transport.DESNet
	bs       *BaseStation
	pub      transport.Conn
	wired    []transport.Conn
	members  []transport.Conn
}

// Every member of a bare cell clears every tier: its tests are about
// buffers.
var bareThresholds = radio.Thresholds{TextDB: -1000, SketchDB: -900, ImageDB: -800}

func newBareCell(t *testing.T, wired, members int) *bareCell {
	t.Helper()
	clk, wiredNet, radioNet := newNets(t)
	c := &bareCell{clk: clk, radioNet: radioNet, pub: attach(t, wiredNet, "pub")}
	c.bs = New("bs", attach(t, wiredNet, "bs"), attach(t, radioNet, "bs"), radio.NewChannel(radio.Params{}),
		Config{Thresholds: bareThresholds})
	t.Cleanup(func() { c.bs.Close() })
	for i := 0; i < wired; i++ {
		c.wired = append(c.wired, attach(t, wiredNet, fmt.Sprintf("w%02d", i)))
	}
	for i := 0; i < members; i++ {
		id := fmt.Sprintf("m%02d", i)
		c.members = append(c.members, seat(t, radioNet, id))
		if _, err := c.bs.Join(profile.New(id), 30, 1); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// settle runs the cell for a virtual second: what was sent waits in
// its receivers' inboxes.
func (c *bareCell) settle() { c.clk.Advance(time.Second) }

// take returns the next datagram waiting for conn.
func take(t *testing.T, what string, conn transport.Conn) []byte {
	t.Helper()
	select {
	case pkt := <-conn.Recv():
		return pkt.Data
	default:
		t.Fatalf("%s: nothing reached %s", what, conn.ID())
		return nil
	}
}

// takeShared settles the cell, returns the one datagram each conn is
// owed and requires that they are one buffer, not equal copies.
func (c *bareCell) takeShared(t *testing.T, what string, conns []transport.Conn) []byte {
	t.Helper()
	c.settle()
	var first []byte
	for i, conn := range conns {
		switch d := take(t, what, conn); {
		case i == 0:
			first = d
		case &d[0] != &first[0] || len(d) != len(first):
			t.Errorf("%s: %s holds its own copy (equal bytes: %v), want the buffer %s holds",
				what, conn.ID(), bytes.Equal(d, first), conns[0].ID())
		}
	}
	return first
}

// TestFanoutSharesOneBuffer: one event, N recipients, one buffer.  The
// base station envelopes a relayed event once (TestOneWrapPerRelayedEvent)
// and gives that datagram to the substrate, so every recipient of an
// uplink's wired multicast, of its radio fan-out and of a downlink
// relay holds the same backing array.
func TestFanoutSharesOneBuffer(t *testing.T) {
	c := newBareCell(t, 3, 9)
	if err := c.bs.UplinkEvent("m00", apps.AppChat, "", apps.EncodeSay("from the field")); err != nil {
		t.Fatal(err)
	}
	c.takeShared(t, "uplink, wired multicast", append(c.wired, c.pub))
	c.takeShared(t, "uplink, radio fan-out", c.members[1:])

	// Downlink.  The publisher uses the copying call and then
	// reuses its buffer: what the members share is the base
	// station's envelope of what was sent, not of what the
	// publisher wrote afterwards.
	d, err := new(message.Enveloper).WrapMessage(&message.Message{
		Kind: message.KindEvent, Sender: "pub", Seq: 1,
		Attrs: selector.Attributes{message.AttrApp: selector.S(apps.AppChat)},
		Body:  apps.EncodeSay("to the cell"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.pub.Multicast(d[0]); err != nil {
		t.Fatal(err)
	}
	for i := range d[0] {
		d[0][i] = 'y'
	}
	c.takeShared(t, "downlink, wired peers", c.wired)
	relayed := c.takeShared(t, "downlink, relayed to the cell", c.members)
	frame, err := message.NewUnwrapper().Unwrap("bs", relayed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := message.Decode(frame)
	if err != nil || !bytes.Equal(got.Body, apps.EncodeSay("to the cell")) {
		t.Errorf("the cell was relayed %v (%v), want the line the publisher sent", got, err)
	}
}

// TestDownlinkUnicastsCountsDeliveries: Stats.DownlinkUnicasts counts a
// member once its datagrams have been handed to the substrate, not
// before the attempt.  A joined member whose radio attachment has gone
// surfaces as the fan-out's error and is not counted; the others are
// still served, and counted once each.
func TestDownlinkUnicastsCountsDeliveries(t *testing.T) {
	c := newBareCell(t, 0, 6)
	c.members[2].Close() // still joined: the station has not been told
	err := c.bs.UplinkEvent("m00", apps.AppChat, "", apps.EncodeSay("anyone there?"))
	if !errors.Is(err, transport.ErrUnknownNode) {
		t.Errorf("uplink fan-out past a detached member: %v, want ErrUnknownNode", err)
	}
	served := []transport.Conn{c.members[1], c.members[3], c.members[4], c.members[5]}
	c.takeShared(t, "fan-out past a detached member", served)
	if got := c.bs.Stats().DownlinkUnicasts; got != uint64(len(served)) {
		t.Errorf("DownlinkUnicasts = %d, want %d: the members reached, each once", got, len(served))
	}
	for _, conn := range append(served, c.members[0]) {
		if n := len(conn.Recv()); n != 0 {
			t.Errorf("%s holds %d more datagrams", conn.ID(), n)
		}
	}
}
