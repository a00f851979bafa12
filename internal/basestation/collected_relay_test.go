package basestation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/wavelet"
)

// The collected-image relay is stream-domain (DESIGN.md §17): what was
// collected goes out as the image tier without a decode.  These tests
// hold it to the derivation it replaced and to the senders that stop a
// share early.

// referenceCollected is deliverCollectedImage's derivation as it stood
// while the relay decoded: render what was collected — in colour when
// all three planes are there, else its gray view — and code the raster
// again.  It lives on as the differential's reference.
func referenceCollected(t *testing.T, meta apps.ImageMeta, prefix [][]byte) *media.Object {
	t.Helper()
	v := viewerOf(meta, prefix)
	var obj *media.Object
	var err error
	if cres, cerr := v.RenderColor(meta.Object); cerr == nil && cres.PlanesPresent == 3 {
		obj, err = media.EncodeColorImage(cres.Image, meta.Description)
	} else {
		res, rerr := v.Render(meta.Object)
		if rerr != nil {
			t.Fatal(rerr)
		}
		obj, err = media.EncodeImage(res.Image, meta.Description)
	}
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// viewerOf is a viewer that has accepted exactly the given packets.
func viewerOf(meta apps.ImageMeta, packets [][]byte) *apps.ImageViewer {
	v := apps.NewImageViewer()
	meta.TotalPackets = len(packets)
	v.Announce(meta)
	for i, p := range packets {
		v.AddPacket(meta.Object, i, p)
	}
	return v
}

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
// marker ends the collection — wherever in the arrival order it comes —
// so the image tier gets the prefix as a prefix, the lower tiers their
// renditions, and no state waits for the TTL sweep.
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
		if got := tr.bs.collect.Objects(); len(got) != 0 {
			t.Errorf("%s: the station still collects %v", name, got)
		}
		if _, err := tr.bs.collect.Stats(meta.Object); err == nil {
			t.Errorf("%s: viewer still tracks the delivered prefix", name)
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
	peer := tr.client(t, tr.wiredNet, "wired-2")
	share++
	if err := tr.wired.ShareImage("cut-by-client", obj, ""); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "cut-by-client", share, nil)
	sent, err := tr.wired.Viewer().AcceptedStream("cut-by-client")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.clients[radio.TierImage] {
		got, err := c.Viewer().AcceptedStream("cut-by-client")
		if err != nil || len(got) == 0 || len(got) >= len(sent) || !bytes.HasPrefix(sent, got) {
			t.Errorf("%s holds %d B of the client's %d B stream, want a proper prefix (err %v)", c.ID(), len(got), len(sent), err)
		}
	}
	// A wired receiver reads the same marker: its share is the k packets
	// that were sent, whole, not k of the 16 announced for ever.
	relayed, _ := tr.clients[radio.TierImage][0].Viewer().AcceptedStream("cut-by-client")
	_, split, _ := apps.ShareImage("cut-by-client", obj, 16)
	cut := 0
	for n := 0; n < len(relayed); cut++ {
		n += len(split[cut])
	}
	if st, err := peer.Viewer().Stats("cut-by-client"); err != nil || st.TotalPackets != cut || st.PacketsAccepted != cut {
		t.Errorf("wired receiver holds the cut share as %+v (%v), want %d of %d", st, err, cut, cut)
	}
	if got, _ := peer.Viewer().AcceptedStream("cut-by-client"); !bytes.Equal(got, relayed) {
		t.Errorf("wired receiver holds %d B, the station collected %d B", len(got), len(relayed))
	}
	if _, err := peer.Viewer().Render("cut-by-client"); err != nil {
		t.Errorf("wired receiver cannot render the cut share: %v", err)
	}

	// A marker that overtakes its own announce is parked with it.
	meta, packets, err := apps.ShareImage("cut-early", obj, 16)
	if err != nil {
		t.Fatal(err)
	}
	in.dataMarked(meta.Object, 1, packets[1], true)
	in.announce(meta.Object, meta)
	in.data(meta.Object, 0, packets[0])
	tr.checkShare(t, meta.Object, share+1, nil)
	if got := tr.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("early marker: the station still collects %v", got)
	}
}

// TestCollectedRelayMatchesReference is the differential for the
// decode-free relay: a gray and a colour share cut after every packet
// count k = 1…16, and a Haar-filter stream.  Each image-tier client's
// full-budget render — gray view and colour — is pixel-identical to
// the reference derivation's, the stream it was sent is never longer
// than the reference's and is byte-identical when nothing was cut; the
// lower tiers' renditions are the reference's on a complete stream.
//
// Two places where the relayed bytes are not the reference's, both by
// construction.  A Haar stream goes out as its sender coded it, where
// the reference codes the raster again with the 5/3 filter: same
// pixels, other bytes — and, since a sketch is drawn from the coded
// stream's own LL band and that band depends on the filter, another
// sketch.  The sketch tier holds the sketch the share carried, cut
// short or not; on a complete 5/3 share that is the reference's too.
// And a colour prefix that holds the Co header
// but not the Cg one goes out as its luma plane, where the reference
// took the luma of an RGB raster rebuilt from half the chroma and
// clamped: there the relayed image is the exact luma, and differs from
// the reference only where that clamp bit.
func TestCollectedRelayMatchesReference(t *testing.T) {
	gray, err := media.EncodeImage(wavelet.Medical(64, 48, 3), "gray scan")
	if err != nil {
		t.Fatal(err)
	}
	colour, err := media.EncodeColorImage(wavelet.ColorScene(48, 64, 5), "colour scene")
	if err != nil {
		t.Fatal(err)
	}
	haarStream, band, err := wavelet.EncodeBand(wavelet.Circles(40, 40), 0, wavelet.FilterHaar, wavelet.SketchMaxDim)
	if err != nil {
		t.Fatal(err)
	}
	haarSketch, err := media.SketchFromRaster(band, "haar rings")
	if err != nil {
		t.Fatal(err)
	}
	haar := &media.Object{Kind: media.KindImage, Format: media.FormatEZW, Data: haarStream,
		Description: "haar rings", Width: 40, Height: 40, Sketch: haarSketch}

	type share struct {
		name string
		obj  *media.Object
		k    int
	}
	var shares []share
	for k := 1; k <= 16; k++ {
		shares = append(shares, share{"gray", gray, k}, share{"colour", colour, k})
	}
	shares = append(shares, share{"haar", haar, 16})

	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	in := newWiredInjector(t, tr.rig, "pub")
	reg := media.DefaultRegistry()
	lumaOnly := 0

	for n, sh := range shares {
		id := fmt.Sprintf("%s-%d", sh.name, sh.k)
		meta, packets, err := apps.ShareImage(id, sh.obj, 16)
		if err != nil {
			t.Fatal(err)
		}
		sendPrefix(in, meta, packets, sh.k, ascending(sh.k))
		tr.checkShare(t, id, n+1, nil)

		ref := referenceCollected(t, meta, packets[:sh.k])
		refView := viewerOf(meta, [][]byte{ref.Data})
		complete := sh.k == 16
		prefix := bytes.Join(packets[:sh.k], nil)
		pinfo, err := wavelet.Inspect(prefix)
		if err != nil {
			t.Fatal(err)
		}
		halfChroma := pinfo.PlanesPresent == 2
		if pinfo.Color && pinfo.PlanesPresent < 3 {
			lumaOnly++
		}

		for _, c := range tr.clients[radio.TierImage] {
			got, err := c.Viewer().AcceptedStream(id)
			if err != nil {
				t.Fatal(err)
			}
			info, err := wavelet.Inspect(got)
			if err != nil || info.Color != media.IsColor(ref) {
				t.Fatalf("%s: %s was sent colour=%v (err %v), the reference is %s", id, c.ID(), info.Color, err, ref)
			}
			switch {
			case sh.obj == haar || halfChroma:
			case len(got) > len(ref.Data):
				t.Errorf("%s: %s was sent %d B, the reference derivation sends %d B", id, c.ID(), len(got), len(ref.Data))
			case complete && !bytes.Equal(got, ref.Data):
				t.Errorf("%s: %s was sent a complete stream that differs from the reference's", id, c.ID())
			}

			res, err := c.Viewer().Render(id)
			want, werr := refView.Render(id)
			if halfChroma {
				want, werr = wavelet.Decode(prefix[pinfo.Planes[0].Start:pinfo.Planes[0].End])
			}
			if err != nil || werr != nil || !res.Image.Equal(want.Image) {
				t.Errorf("%s: %s gray view differs from the reference's (err %v, %v)", id, c.ID(), err, werr)
			}
			if media.IsColor(ref) {
				cres, err := c.Viewer().RenderColor(id)
				cwant, werr := refView.RenderColor(id)
				if err != nil || werr != nil || !cres.Image.Equal(cwant.Image) {
					t.Errorf("%s: %s colour render differs from the reference's (err %v, %v)", id, c.ID(), err, werr)
				}
			}
		}
		for _, c := range tr.clients[radio.TierText] {
			if txt := latestFrom(t, c, media.KindText); string(txt.Data) != sh.obj.Description {
				t.Errorf("%s: %s got text %q", id, c.ID(), txt.Data)
			}
		}
		for _, c := range tr.clients[radio.TierSketch] {
			sk := latestFrom(t, c, media.KindSketch)
			if sk.Sketch != "" || string(sk.Data) != sh.obj.Sketch {
				t.Errorf("%s: %s holds a sketch other than the one the share carried", id, c.ID())
			}
			if !complete || sh.obj == haar {
				continue
			}
			want, err := reg.Transmode(ref, media.KindSketch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sk.Data, want.Data) || sk.Width != want.Width || sk.Height != want.Height {
				t.Errorf("%s: %s sketch differs from the reference's", id, c.ID())
			}
		}
	}
	if lumaOnly == 0 {
		t.Error("no colour prefix stopped short of the chroma headers: the luma-only relay went untested")
	}
	if got := tr.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("the station still collects %v", got)
	}
}

// TestHostileCollectedStreamDropped: a collected stream whose headers
// the coder would refuse is dropped and its state purged, and its
// geometry sizes nothing — the relay reads headers through the
// inspector and through nothing else.
func TestHostileCollectedStreamDropped(t *testing.T) {
	tr := &tierRig{}
	tr.place(t, Config{}, radio.TierImage, radio.TierSketch, radio.TierText)
	in := newWiredInjector(t, tr.rig, "mallory")

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
	for name, stream := range hostile {
		if _, err := wavelet.Inspect(stream); err == nil {
			t.Fatalf("%s: the inspector accepts it", name)
		}
		// The announce claims a raster the size of the wire's limits.
		meta := apps.ImageMeta{Object: name, Width: 65535, Height: 65535,
			TotalPackets: 2, StreamBytes: len(stream), Description: "x"}
		in.announce(name, meta)
		half := len(stream) / 2
		in.data(name, 0, stream[:half])
		in.data(name, 1, stream[half:])
	}
	// A well-formed share sent afterwards on the same connection is
	// delivered: by then every hostile one before it has been handled.
	good := testImageObject(t)
	if err := shareVia(in, "good", good); err != nil {
		t.Fatal(err)
	}
	tr.checkShare(t, "good", 1, nil)
	if got := tr.bs.collect.Objects(); len(got) != 0 {
		t.Errorf("the station still collects %v", got)
	}
	for name := range hostile {
		if _, err := tr.bs.collect.Stats(name); err == nil {
			t.Errorf("%s: viewer still tracks the refused stream", name)
		}
		for _, c := range tr.clients[radio.TierImage] {
			if _, err := c.Viewer().Stats(name); err == nil {
				t.Errorf("%s: relayed to %s", name, c.ID())
			}
		}
	}
	for _, tier := range []radio.Tier{radio.TierSketch, radio.TierText} {
		for _, c := range tr.clients[tier] {
			if n := c.Inbox().Len(); n != 1 {
				t.Errorf("%s holds %d renditions, want only the good share's", c.ID(), n)
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
