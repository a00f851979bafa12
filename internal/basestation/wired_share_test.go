package basestation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/wavelet"
)

// A wired image share passes through the station frame by frame
// (DESIGN.md §17): the image tier gets the announce and the data frames
// as they were sent, the lower tiers renditions drawn from the announce,
// and the station keeps nothing.  These tests hold it to the senders
// that stop a share early, to a wired link that loses a packet and to
// the stream its sender sent.

// sendPrefix announces all of meta's packets and sends the first k in
// the given order, the marker on packet k-1: a sender that truncated
// its own share.
func sendPrefix(in *wiredInjector, meta apps.ImageMeta, packets [][]byte, k int, order []int) {
	in.announce(meta.Object, meta)
	for _, i := range order {
		in.dataMarked(meta.Object, i, packets[i], i == k-1)
	}
}

func ascending(k int) []int {
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	return order
}

// latestFrom returns the newest rendition of object in c's media inbox.
func latestFrom(t *testing.T, c *core.Client, kind media.Kind) *media.Object {
	t.Helper()
	d, ok := c.Inbox().Latest()
	if !ok || d.Object.Kind != kind {
		t.Fatalf("%s: latest inbox item is %v, want a %s", c.ID(), d.Object, kind)
	}
	return d.Object
}

// TestTruncatedShareReachesEveryTier: a sender that cuts its share to k
// of the 16 packets it announced marks the last one it sends.  The
// station forwards the marker with its packet, so the image tier's
// share ends there — wherever in the arrival order the marker comes —
// and the lower tiers get their renditions from the announce.
func TestTruncatedShareReachesEveryTier(t *testing.T) {
	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	in := newWiredInjector(t, tr.rig, "pub")
	obj := testImageObject(t)

	const k = 4
	orders := map[string][]int{
		"in order":     ascending(k),
		"marker first": {3, 0, 1, 2},
	}
	share := 0
	for name, order := range orders {
		share++
		meta, packets, err := apps.ShareImage(fmt.Sprintf("cut-%d", share), obj, 16)
		if err != nil {
			t.Fatal(err)
		}
		sendPrefix(in, meta, packets, k, order)
		tr.checkShare(t, meta.Object, share, nil)

		want, err := wavelet.Decode(bytes.Join(packets[:k], nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tr.clients[radio.TierImage] {
			got, err := c.Viewer().Render(meta.Object)
			if err != nil || !got.Image.Equal(want.Image) {
				t.Errorf("%s: %s renders something other than the %d-packet prefix (err %v)", name, c.ID(), k, err)
			}
		}
		for _, c := range tr.clients[radio.TierSketch] {
			latestFrom(t, c, media.KindSketch)
		}
		for _, c := range tr.clients[radio.TierText] {
			if txt := latestFrom(t, c, media.KindText); string(txt.Data) != obj.Description {
				t.Errorf("%s: %s got text %q", name, c.ID(), txt.Data)
			}
		}
	}

	// The sender the marker rule exists for: a framework client that a
	// receiver's report has told of loss cuts its next share itself.
	in.send(&message.Message{Kind: message.KindControl, Attrs: selector.Attributes{
		"ctrl": selector.S("rtcp-rr"), "subject": selector.S(tr.wired.ID()), "fraction-lost": selector.N(0.5),
	}})
	tr.settle()
	if tr.wired.WorstPeerLoss() <= 0 {
		t.Fatal("the reception report did not reach the wired client")
	}
	peer := tr.client(t, attach(t, tr.wiredNet, "wired-2"))
	share++
	if err := tr.wired.ShareImage("cut-by-client", obj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "cut-by-client", share, nil)
	_, split, _ := apps.ShareImage("cut-by-client", obj, 16)
	relayed, err := tr.clients[radio.TierImage][0].Viewer().Stats("cut-by-client")
	if err != nil || relayed.TotalPackets < 1 || relayed.TotalPackets >= len(split) {
		t.Fatalf("the member holds %+v (%v), want a proper prefix of the %d packets", relayed, err, len(split))
	}
	want, err := wavelet.Decode(bytes.Join(split[:relayed.TotalPackets], nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.clients[radio.TierImage] {
		if res, err := c.Viewer().Render("cut-by-client"); err != nil || !res.Image.Equal(want.Image) {
			t.Errorf("%s renders something other than the client's %d-packet prefix (err %v)", c.ID(), relayed.TotalPackets, err)
		}
	}
	// A wired receiver reads the same marker: it holds the share as the
	// member does, the packets that were sent, whole, not k of the 16
	// announced for ever.
	if st, err := peer.Viewer().Stats("cut-by-client"); err != nil || st != relayed {
		t.Errorf("wired receiver holds the cut share as %+v (%v), the member as %+v", st, err, relayed)
	}
	if _, err := peer.Viewer().Render("cut-by-client"); err != nil {
		t.Errorf("wired receiver cannot render the cut share: %v", err)
	}

	// A marker that overtakes its own announce is parked with it, at the
	// member.
	meta, packets, err := apps.ShareImage("cut-early", obj, 16)
	if err != nil {
		t.Fatal(err)
	}
	in.dataMarked(meta.Object, 1, packets[1], true)
	in.announce(meta.Object, meta)
	in.data(meta.Object, 0, packets[0])
	tr.checkShare(t, meta.Object, share+1, nil)
}

// TestLostPacketStarvesNoTier: a share that reaches the station with
// one of its data packets lost on the wired link still reaches every
// tier.  The image tier holds the prefix before the loss — any prefix
// of the progressive stream is an image — and the sketch and text tiers
// hold their renditions, drawn from the announce.  (A station that
// collected a share before serving anyone left all six members empty.)
func TestLostPacketStarvesNoTier(t *testing.T) {
	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	in := newWiredInjector(t, tr.rig, "pub")
	obj := testImageObject(t)
	meta, packets, err := apps.ShareImage("lossy", obj, apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	const lost = 9
	in.announce(meta.Object, meta)
	for i, p := range packets {
		if i != lost {
			in.data(meta.Object, i, p)
		}
	}
	tr.settle()

	want, err := wavelet.Decode(bytes.Join(packets[:lost], nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.clients[radio.TierImage] {
		st, err := c.Viewer().Stats(meta.Object)
		if err != nil || st.PacketsAccepted != lost || st.PacketsReceived != len(packets)-1 {
			t.Errorf("%s holds %+v (%v), want the %d packets before the loss accepted and %d received", c.ID(), st, err, lost, len(packets)-1)
			continue
		}
		if res, err := c.Viewer().Render(meta.Object); err != nil || !res.Image.Equal(want.Image) {
			t.Errorf("%s renders something other than the %d-packet prefix (err %v)", c.ID(), lost, err)
		}
	}
	for _, c := range tr.clients[radio.TierSketch] {
		if sk := latestFrom(t, c, media.KindSketch); string(sk.Data) != obj.Sketch {
			t.Errorf("%s holds a sketch other than the one the share carried", c.ID())
		}
	}
	for _, c := range tr.clients[radio.TierText] {
		if txt := latestFrom(t, c, media.KindText); string(txt.Data) != obj.Description {
			t.Errorf("%s got text %q", c.ID(), txt.Data)
		}
	}
	// The data frames go to the image tier only.
	for _, c := range append(tr.clients[radio.TierSketch], tr.clients[radio.TierText]...) {
		if st, heard := c.ReceptionReport("pub"); heard {
			t.Errorf("%s was sent %d data frames", c.ID(), st.Received)
		}
	}
}

// TestRelayedFramesAreTheSentPackets: a wired share reaches an
// image-tier member as its sender sent it — the announce byte for byte,
// then each data frame with its sender, seq, attributes, payload, RTP
// timestamp and marker — and only the RTP header's stream fields are
// the station's: the share's own SSRC and its level as the seq, so each
// share is one RTP stream at the member, as an uplinked share is.
func TestRelayedFramesAreTheSentPackets(t *testing.T) {
	c := newBareCell(t, 0, 2)
	in := &wiredInjector{t: t, clk: c.clk, conn: c.pub}
	meta, packets, err := apps.ShareImage("scan", testImageObject(t), apps.SharePackets)
	if err != nil {
		t.Fatal(err)
	}
	attrs := func(level int) selector.Attributes {
		a := selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S("scan"),
			message.AttrMedia:  selector.S("image"),
		}
		if level >= 0 {
			a[message.AttrLevel] = selector.N(float64(level))
		}
		return a
	}
	const k = 11 // the sender cut the share after k packets
	in.send(&message.Message{Kind: message.KindEvent, Attrs: attrs(-1), Body: apps.EncodeImageMeta(meta)})
	for i := 0; i < k; i++ {
		rp := rtp.Packet{PayloadType: 96, Marker: i == k-1, Seq: uint16(500 + i), Timestamp: 9000, SSRC: 77, Payload: packets[i]}
		in.send(&message.Message{Kind: message.KindData, Attrs: attrs(i), Body: rp.Marshal()})
	}
	c.settle()

	for _, conn := range c.members {
		u := message.NewUnwrapper()
		var got []*message.Message
		for len(conn.Recv()) > 0 {
			frame, err := u.Unwrap("bs", (<-conn.Recv()).Data)
			if err != nil {
				t.Fatal(err)
			}
			if frame == nil {
				continue
			}
			m, err := message.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m)
		}
		if len(got) != 1+k {
			t.Fatalf("%s was sent %d messages, want the announce and %d data frames", conn.ID(), len(got), k)
		}
		if a := got[0]; a.Kind != message.KindEvent || a.Sender != "pub" || a.Seq != 1 || !bytes.Equal(a.Body, apps.EncodeImageMeta(meta)) {
			t.Errorf("%s: the announce arrived as %s %s#%d, %d B", conn.ID(), a.Kind, a.Sender, a.Seq, len(a.Body))
		}
		for i, m := range got[1:] {
			level, _ := m.Attr(message.AttrLevel)
			kind, _ := m.Attr(message.AttrMedia)
			if m.Kind != message.KindData || m.Sender != "pub" || m.Seq != uint32(i+2) || level.Num() != float64(i) || kind.Str() != "image" {
				t.Errorf("%s: frame %d arrived as %s %s#%d level %v media %q", conn.ID(), i, m.Kind, m.Sender, m.Seq, level, kind.Str())
			}
			p, err := rtp.Unmarshal(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			if p.SSRC != rtp.SSRCOf("bs/scan") || p.Seq != uint16(i) || p.Timestamp != 9000 || p.PayloadType != 96 ||
				p.Marker != (i == k-1) || !bytes.Equal(p.Payload, packets[i]) {
				t.Errorf("%s: frame %d has ssrc %#x seq %d ts %d marker %v, %d B; want the share's ssrc %#x, seq %d, ts 9000, marker %v, packet %d's %d B",
					conn.ID(), i, p.SSRC, p.Seq, p.Timestamp, p.Marker, len(p.Payload), rtp.SSRCOf("bs/scan"), i, i == k-1, i, len(packets[i]))
			}
		}
	}
}

// TestFragmentedSharesAreTheSentPackets: two wired shares whose frames
// are fragmented at a 1 400 B MTU, their fragments interleaved so that
// one frame of each is being reassembled at once, reach every image-tier
// member as their sender sent them.  The station reassembles each frame
// into one scratch it reuses for the next, so a frame relayed from that
// scratch after a later one overwrote it would show here.
func TestFragmentedSharesAreTheSentPackets(t *testing.T) {
	c := newBareCell(t, 0, 2)
	env := message.Enveloper{MTU: 1400}
	var seq uint32
	wrap := func(m *message.Message) [][]byte {
		t.Helper()
		seq++
		m.Sender, m.Seq, m.Timestamp = "pub", seq, c.clk.Now()
		d, err := env.WrapMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	attrs := func(object string, level int) selector.Attributes {
		a := selector.Attributes{message.AttrApp: selector.S(apps.AppImageViewer), message.AttrObject: selector.S(object)}
		if level >= 0 {
			a[message.AttrLevel] = selector.N(float64(level))
		}
		return a
	}
	objects := [2]string{"scan", "chart"}
	var packets [2][][]byte
	var announces [2][]byte
	var frames [2][][][]byte
	for s, object := range objects {
		obj, err := media.EncodeImage(wavelet.Medical(256, 256, int64(s+1)), object)
		if err != nil {
			t.Fatal(err)
		}
		meta, ps, err := apps.ShareImage(object, obj, apps.SharePackets)
		if err != nil {
			t.Fatal(err)
		}
		packets[s], announces[s] = ps, apps.EncodeImageMeta(meta)
		for i, p := range ps {
			rp := rtp.Packet{PayloadType: 96, Marker: i == len(ps)-1, Seq: uint16(i), Timestamp: 9000, SSRC: 77, Payload: p}
			frames[s] = append(frames[s], wrap(&message.Message{Kind: message.KindData, Attrs: attrs(object, i), Body: rp.Marshal()}))
		}
	}
	send := func(d []byte) {
		t.Helper()
		if err := c.pub.Multicast(d); err != nil {
			t.Fatal(err)
		}
	}
	for s, object := range objects {
		for _, d := range wrap(&message.Message{Kind: message.KindEvent, Attrs: attrs(object, -1), Body: announces[s]}) {
			send(d)
		}
	}
	fragmented := 0
	for i := range packets[0] {
		a, b := frames[0][i], frames[1][i]
		if len(a) > 1 && len(b) > 1 {
			fragmented++
		}
		for k := 0; k < max(len(a), len(b)); k++ {
			if k < len(a) {
				send(a[k])
			}
			if k < len(b) {
				send(b[k])
			}
		}
	}
	if fragmented == 0 {
		t.Fatal("no frame of either share was fragmented")
	}
	c.settle()

	for _, conn := range c.members {
		u := message.NewUnwrapper()
		var got [2][][]byte
		for len(conn.Recv()) > 0 {
			frame, err := u.Unwrap("bs", (<-conn.Recv()).Data)
			if err != nil {
				t.Fatal(err)
			}
			if frame == nil {
				continue
			}
			m, err := message.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			name, _ := m.Attr(message.AttrObject)
			s := 0
			if name.Str() == objects[1] {
				s = 1
			}
			if m.Kind == message.KindEvent {
				if !bytes.Equal(m.Body, announces[s]) {
					t.Errorf("%s: the announce of %s arrived as %d other bytes", conn.ID(), objects[s], len(m.Body))
				}
				continue
			}
			p, err := rtp.Unmarshal(m.Body)
			if err != nil {
				t.Fatal(err)
			}
			got[s] = append(got[s], p.Payload)
		}
		for s := range objects {
			if len(got[s]) != len(packets[s]) {
				t.Fatalf("%s was sent %d data frames of %s, want %d", conn.ID(), len(got[s]), objects[s], len(packets[s]))
			}
			for i, p := range got[s] {
				if !bytes.Equal(p, packets[s][i]) {
					t.Errorf("%s: frame %d of %s differs from the packet its sender sent", conn.ID(), i, objects[s])
				}
			}
		}
	}
}

// TestHostileCollectedStreamDropped: a stream the coder would refuse
// reaches image-tier members exactly as it reaches a wired receiver, and
// is refused where it is decoded, at the members: a render fails or
// shows a blank canvas of the announced size.  The station reads a
// frame's attributes and RTP header and nothing of the stream, and the
// lower tiers get the announce's text.  An announce claiming a raster
// the decoder would refuse (65535×65535 fits the wire's fields) is
// refused as it is read, at the station as at the wired receiver: no
// member gets a rendition of it or holds it, so none draws its canvas.
func TestHostileCollectedStreamDropped(t *testing.T) {
	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	in := newWiredInjector(t, tr.rig, "mallory")
	peer := tr.client(t, attach(t, tr.wiredNet, "wired-2"))

	header := func(w, h uint16) []byte {
		s := append([]byte("EZW1"), 0, 0, 0, 0, 1, 7)
		binary.BigEndian.PutUint16(s[4:], w)
		binary.BigEndian.PutUint16(s[6:], h)
		return append(s, make([]byte, 64)...)
	}
	plane := func(out, s []byte) []byte {
		return append(binary.BigEndian.AppendUint32(out, uint32(len(s))), s...)
	}
	hostile := map[string][]byte{
		"bad magic":        append([]byte("EZW9"), header(16, 16)[4:]...),
		"over maxPixels":   header(4096, 4096),
		"planes disagree":  plane(plane([]byte("EZC1"), header(16, 16)), header(16, 8)),
		"header cut short": header(16, 16)[:9],
		"empty colour":     []byte("EZC1\x00\x00\x00\x00"),
	}
	send := func(name string, w, h int, stream []byte) {
		in.announce(name, apps.ImageMeta{Object: name, Width: w, Height: h,
			TotalPackets: 2, StreamBytes: len(stream), Description: "x"})
		half := len(stream) / 2
		in.data(name, 0, stream[:half])
		in.data(name, 1, stream[half:])
	}
	shares := 0
	for name, stream := range hostile {
		if _, err := wavelet.Inspect(stream); err == nil {
			t.Fatalf("%s: the inspector accepts it", name)
		}
		send(name, 16, 16, stream)
		shares++
	}
	oversized := map[string][2]int{"wire's limit": {65535, 65535}, "over maxPixels": {32768, 32768}, "side too long": {32769, 1}}
	for name, size := range oversized {
		send("oversized "+name, size[0], size[1], header(16, 16))
	}
	good := testImageObject(t)
	if err := shareVia(in, "good", good); err != nil {
		t.Fatal(err)
	}
	// The lower tiers hold one rendition per hostile share and one for
	// the good one: none for an oversized announce.
	tr.checkShare(t, "good", shares+1, nil)
	for name, stream := range hostile {
		want, err := peer.Viewer().Stats(name)
		if err != nil || want.PacketsAccepted != 2 || want.AcceptedBytes != len(stream) {
			t.Fatalf("%s: the wired receiver holds %+v (%v), want the %d B sent", name, want, err, len(stream))
		}
		for _, c := range tr.clients[radio.TierImage] {
			if got, err := c.Viewer().Stats(name); err != nil || got != want {
				t.Errorf("%s: %s holds %+v (%v), the wired receiver %+v", name, c.ID(), got, err, want)
			}
			if res, err := c.Viewer().Render(name); err == nil && (res.Image.W != 16 || res.Image.H != 16) {
				t.Errorf("%s: %s renders a %dx%d image", name, c.ID(), res.Image.W, res.Image.H)
			}
			if res, err := c.Viewer().RenderColor(name); err == nil && (res.Image.W != 16 || res.Image.H != 16) {
				t.Errorf("%s: %s renders a %dx%d colour image", name, c.ID(), res.Image.W, res.Image.H)
			}
		}
	}
	for name := range oversized {
		for _, c := range append(tr.clients[radio.TierImage], peer) {
			if _, err := c.Viewer().Render("oversized " + name); !errors.Is(err, apps.ErrUnknownImage) {
				t.Errorf("oversized %s: %s holds the share (render err %v)", name, c.ID(), err)
			}
		}
	}
	for _, tier := range []radio.Tier{radio.TierSketch, radio.TierText} {
		for _, c := range tr.clients[tier] {
			for _, d := range c.Inbox().Items()[:shares] {
				if d.Object.Kind != media.KindText || string(d.Object.Data) != "x" {
					t.Errorf("%s holds %s for a hostile share, want its text", c.ID(), d.Object)
				}
			}
		}
	}
}

// shareVia sends a complete 16-packet share of obj.
func shareVia(in *wiredInjector, object string, obj *media.Object) error {
	meta, packets, err := apps.ShareImage(object, obj, 16)
	if err != nil {
		return err
	}
	sendPrefix(in, meta, packets, len(packets), ascending(len(packets)))
	return nil
}

// TestSharesObeyTheSelectorAtTheStation: a share, wired or uplinked by
// a member, reaches over the radio only the members whose stored
// profiles its selector admits; a member it rejects is sent nothing, so
// its kernel has nothing to filter.
func TestSharesObeyTheSelectorAtTheStation(t *testing.T) {
	r := newRig(t, Config{})
	uplinker := r.joinWithMedia(t, "up", "video")
	video := r.joinWithMedia(t, "v1", "video")
	audio := r.joinWithMedia(t, "a1", "audio")
	obj := testImageObject(t)
	const sel = `media == "video"`
	if err := uplinker.ShareImage("uplinked", obj, sel); err != nil {
		t.Fatal(err)
	}
	if err := r.wired.ShareImage("wired", obj, sel); err != nil {
		t.Fatal(err)
	}
	r.settle()
	if st := audio.Stats(); st.EventsReceived+st.EventsFiltered+st.DataPackets != 0 {
		t.Errorf("a1, whose profile the selector rejects, was sent %d events (%d of them filtered) and %d data packets",
			st.EventsReceived+st.EventsFiltered, st.EventsFiltered, st.DataPackets)
	}
	if st := video.Stats(); st.EventsReceived != 2 || st.EventsFiltered != 0 {
		t.Errorf("v1 took %d events and filtered %d, want both shares and nothing filtered", st.EventsReceived, st.EventsFiltered)
	}
}
