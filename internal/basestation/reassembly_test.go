package basestation

import (
	"fmt"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

// wiredInjector crafts raw wired-session frames (announce / data) so
// tests can drive partial image transfers the core client API would
// always complete.
type wiredInjector struct {
	t    *testing.T
	conn transport.Conn
	seq  uint32
}

func newWiredInjector(t *testing.T, r *rig, id string) *wiredInjector {
	t.Helper()
	conn, err := r.wiredNet.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	return &wiredInjector{t: t, conn: conn}
}

func (in *wiredInjector) send(m *message.Message) {
	in.t.Helper()
	in.seq++
	m.Sender = in.conn.ID()
	m.Seq = in.seq
	m.Timestamp = time.Now()
	frame, err := message.Encode(m)
	if err != nil {
		in.t.Fatal(err)
	}
	if err := in.conn.Multicast(message.WrapWhole(frame)); err != nil {
		in.t.Fatal(err)
	}
}

func (in *wiredInjector) announce(object string, meta apps.ImageMeta) {
	in.send(&message.Message{
		Kind: message.KindEvent,
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(object),
		},
		Body: apps.EncodeImageMeta(meta),
	})
}

func (in *wiredInjector) data(object string, idx int, chunk []byte) {
	in.dataMarked(object, idx, chunk, false)
}

// dataMarked sends a data packet, with the RTP marker set when the
// sender stops its share there.
func (in *wiredInjector) dataMarked(object string, idx int, chunk []byte, marker bool) {
	rp := rtp.Packet{
		PayloadType: 96,
		Marker:      marker,
		Seq:         uint16(idx),
		SSRC:        1,
		Payload:     chunk,
	}
	in.send(&message.Message{
		Kind: message.KindData,
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S(object),
			message.AttrLevel:  selector.N(float64(idx)),
		},
		Body: rp.Marshal(),
	})
}

// TestReassemblyStateReleasedAfterDelivery: once a wired-side image is
// fully collected and forwarded, the broker must drop ALL reassembly
// state — the collection tracker entry and the viewer's buffers — so
// long sessions do not accumulate per-image memory (the leak this
// refactor fixes).
func TestReassemblyStateReleasedAfterDelivery(t *testing.T) {
	r := newRig(t, Config{})
	w := r.joinWireless(t, "w1", 20, 1)

	obj := testImageObject(t)
	if err := r.wired.ShareImage("rel-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery to wireless client", func() bool {
		if st, err := w.Viewer().Stats("rel-1"); err == nil && st.PacketsAccepted == st.TotalPackets {
			return true
		}
		return w.Inbox().Len() > 0
	})
	waitFor(t, "collection state purge", func() bool {
		return r.bs.collections.Len() == 0
	})
	if _, err := r.bs.collect.Stats("rel-1"); err == nil {
		t.Error("viewer still tracks the delivered image")
	}
}

// TestReassemblySweepEvictsIncomplete: an announced transfer whose
// sender disappears mid-stream is TTL-evicted — tracker entry, viewer
// buffers and parked orphan packets all released.
func TestReassemblySweepEvictsIncomplete(t *testing.T) {
	r := newRig(t, Config{CollectTTL: 80 * time.Millisecond})
	in := newWiredInjector(t, r, "crasher")

	obj := testImageObject(t)
	meta, packets, err := apps.ShareImage("halfway", obj, 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("halfway", meta)
	in.data("halfway", 0, packets[0]) // ... and the sender crashes here

	// An orphan data packet whose announce never arrives parks in the
	// tracker and must age out the same way.
	in.data("orphan", 0, packets[1])

	waitFor(t, "partial transfer registered", func() bool {
		st, err := r.bs.collect.Stats("halfway")
		return err == nil && st.PacketsAccepted == 1 && r.bs.collections.Len() == 2
	})
	waitFor(t, "TTL eviction", func() bool {
		return r.bs.collections.Len() == 0
	})
	if _, err := r.bs.collect.Stats("halfway"); err == nil {
		t.Error("viewer still tracks the expired transfer")
	}

	// The broker still accepts a fresh, complete transfer of the same
	// object after the eviction.
	meta2, packets2, err := apps.ShareImage("halfway", obj, 8)
	if err != nil {
		t.Fatal(err)
	}
	in.announce("halfway", meta2)
	for i, p := range packets2 {
		in.data("halfway", i, p)
	}
	waitFor(t, "retransfer completes and purges", func() bool {
		_, err := r.bs.collect.Stats("halfway")
		return r.bs.collections.Len() == 0 && err != nil
	})
}

// TestReassemblyJoinLeaveMidTransfer: clients joining and leaving while
// transfers are in flight must not wedge delivery or leak collection
// state.
func TestReassemblyJoinLeaveMidTransfer(t *testing.T) {
	r := newRig(t, Config{CollectTTL: 500 * time.Millisecond})
	r.joinWireless(t, "w1", 30, 1)

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			if err := r.wired.ShareImage(fmt.Sprintf("churn-%d", i), testImageObject(t), ""); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Churn membership while the packets stream through the broker.
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("mid-%d", i)
		r.joinWireless(t, id, 40+float64(10*i), 1)
		if i%2 == 0 {
			if err := r.bs.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := r.bs.Leave("w1"); err != nil {
		t.Fatal(err)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all collections drained after churn", func() bool {
		return r.bs.collections.Len() == 0
	})
}
