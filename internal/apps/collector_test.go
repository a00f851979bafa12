package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/rtp"
)

// wire is chunk data as it comes off the wire: an RTP packet whose
// marker says whether the sender stops there.
func wire(data []byte, marker bool) rtp.Packet {
	return rtp.Packet{PayloadType: 96, Marker: marker, Payload: data}
}

// TestCollectionsLifecycle: chunks that overtake their announce are
// parked and adopted by it in arrival order, within both parking
// bounds; a repeated announce keeps the collection; Forget drops it.
func TestCollectionsLifecycle(t *testing.T) {
	v := NewImageViewer()
	meta := ImageMeta{Object: "img", Width: 4, Height: 4, TotalPackets: 3, Description: "d"}

	// Arrival order decides between two claims to one index.
	for _, c := range []struct {
		idx  int
		data string
	}{{2, "c"}, {0, "first"}, {0, "second"}} {
		if joined, err := v.AddChunk("img", c.idx, wire([]byte(c.data), false)); joined || err != nil {
			t.Fatalf("early chunk %d: joined=%v err=%v", c.idx, joined, err)
		}
	}
	if _, err := v.Stats("img"); err == nil {
		t.Fatal("parked chunks made the share known before its announce")
	}
	if got := v.Announce(meta); got != 3 {
		t.Fatalf("announce adopted %d chunks, want 3 (a duplicate still joins)", got)
	}
	if joined, err := v.AddChunk("img", 1, wire([]byte("b"), false)); !joined || err != nil {
		t.Fatalf("chunk of an announced share: joined=%v err=%v", joined, err)
	}
	if got, _, _ := v.prefix("img"); string(got) != "firstbc" {
		t.Fatalf("accepted stream %q", got)
	}

	// The same announce again is a duplicate delivery; other metadata
	// is another share under the same name.
	if got := v.Announce(meta); got != 0 {
		t.Fatalf("duplicate announce adopted %d", got)
	}
	if st, _ := v.Stats("img"); st.PacketsAccepted != 3 {
		t.Fatalf("duplicate announce threw the collection away: %+v", st)
	}
	meta.Description = "other"
	v.Announce(meta)
	if st, _ := v.Stats("img"); st.PacketsReceived != 0 {
		t.Fatalf("a different announce kept the old packets: %+v", st)
	}
	v.Forget("img")
	if len(v.Objects()) != 0 {
		t.Fatalf("objects after forget: %v", v.Objects())
	}

	// Parking bounds: per object and across objects.
	for i := 0; i < 100; i++ {
		v.AddChunk("one", i, wire([]byte{byte(i)}, false))
	}
	if got := v.Announce(ImageMeta{Object: "one", Width: 1, Height: 1, TotalPackets: 100}); got != maxParkedPerObject {
		t.Fatalf("per-object bound: kept %d", got)
	}
	for i := 0; i < 100; i++ {
		v.AddChunk(fmt.Sprintf("obj-%d", i), 0, wire(nil, false))
	}
	kept := 0
	for i := 0; i < 100; i++ {
		kept += v.Announce(ImageMeta{Object: fmt.Sprintf("obj-%d", i), Width: 1, Height: 1, TotalPackets: 1})
	}
	if kept != maxParkedObjects {
		t.Fatalf("object bound: %d objects parked", kept)
	}
}

// TestParkingDisplacesTheLongestWaiting: chunks whose announce never
// comes fill the parking list, and the next early chunk displaces the
// longest-waiting object rather than being dropped, so a share whose
// first chunk overtakes its announce is still adopted whole.  Forget
// drops what is parked for an object too.
func TestParkingDisplacesTheLongestWaiting(t *testing.T) {
	v := NewImageViewer()
	for i := 0; i <= maxParkedObjects; i++ {
		v.AddChunk(fmt.Sprintf("orphan-%d", i), 0, wire([]byte("o"), false))
	}
	v.AddChunk("late", 0, wire([]byte("ab"), false))
	if got := v.Announce(ImageMeta{Object: "late", Width: 4, Height: 4, TotalPackets: 2}); got != 1 {
		t.Fatalf("announce adopted %d early chunks, want 1", got)
	}
	if joined, err := v.AddChunk("late", 1, wire([]byte("c"), true)); !joined || err != nil {
		t.Fatalf("second chunk: joined=%v err=%v", joined, err)
	}
	if got, _, _ := v.prefix("late"); string(got) != "abc" {
		t.Fatalf("accepted stream %q", got)
	}
	for i, want := range map[int]int{0: 0, 1: 0, 2: 1, maxParkedObjects: 1} {
		if got := v.Announce(ImageMeta{Object: fmt.Sprintf("orphan-%d", i), Width: 1, Height: 1, TotalPackets: 1}); got != want {
			t.Errorf("orphan-%d: announce adopted %d, want %d", i, got, want)
		}
	}
	v.AddChunk("forgotten", 0, wire([]byte("f"), false))
	v.Forget("forgotten")
	if got := v.Announce(ImageMeta{Object: "forgotten", Width: 1, Height: 1, TotalPackets: 1}); got != 0 {
		t.Errorf("announce after Forget adopted %d parked chunks", got)
	}
}

// TestQuickCollectorMatchesModel: a share is an announce of n packets
// and the first k of them, the marker on the last.  Whatever order
// they arrive in and however often each is delivered — within the
// parking bounds — the viewer ends up where in-order delivery puts it:
// same accepted stream, same statistics, same completion.
func TestQuickCollectorMatchesModel(t *testing.T) {
	type arrival struct {
		announce bool
		idx      int
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		k := 1 + rng.Intn(n)
		stream := make([]byte, 16+rng.Intn(200))
		rng.Read(stream)
		obj := &media.Object{Kind: media.KindImage, Format: media.FormatEZW, Data: stream, Width: 8, Height: 8}
		meta, packets, err := ShareImage("s", obj, n)
		if err != nil {
			t.Fatal(err)
		}
		n = meta.TotalPackets
		if k > n {
			k = n
		}
		budget := rng.Intn(n+2) - 1 // -1 = unlimited

		inOrder := []arrival{{announce: true}}
		for i := 0; i < k; i++ {
			inOrder = append(inOrder, arrival{idx: i})
		}
		// Up to three deliveries of each: at most 48 chunks can precede
		// the first announce, inside the per-object parking bound.
		var shuffled []arrival
		for _, a := range inOrder {
			for c := 1 + rng.Intn(3); c > 0; c-- {
				shuffled = append(shuffled, a)
			}
		}
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		run := func(arrivals []arrival) (stream []byte, st ImageStats, joined int) {
			v := NewImageViewer()
			v.SetBudget(budget)
			for _, a := range arrivals {
				if a.announce {
					joined += v.Announce(meta)
					continue
				}
				ok, err := v.AddChunk("s", a.idx, wire(packets[a.idx], a.idx == k-1))
				if err != nil {
					t.Fatalf("seed %d: chunk %d of %d (k=%d): %v", seed, a.idx, n, k, err)
				}
				if ok {
					joined++
				}
			}
			stream, _, err := v.prefix("s")
			if err != nil {
				t.Fatal(err)
			}
			st, _ = v.Stats("s")
			return stream, st, joined
		}
		wantStream, want, _ := run(inOrder)
		gotStream, got, joined := run(shuffled)
		chunks := 0
		for _, a := range shuffled {
			if !a.announce {
				chunks++
			}
		}
		if want.TotalPackets != k || want.PacketsReceived != k {
			t.Errorf("seed %d: in-order delivery of %d/%d: %+v", seed, k, n, want)
			return false
		}
		if !bytes.Equal(gotStream, wantStream) || got != want || joined != chunks {
			t.Errorf("seed %d (n=%d k=%d budget=%d): shuffled %+v (%d B, %d of %d joined), in order %+v (%d B)",
				seed, n, k, budget, got, len(gotStream), joined, chunks, want, len(wantStream))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeImageMeta: the base station decodes announces from the
// wire and from the air.  No input panics the decoder, and what it accepts it encodes
// back to the same bytes.  Seeds: testdata/fuzz/FuzzDecodeImageMeta.
func FuzzDecodeImageMeta(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeImageMeta(payload)
		if err != nil {
			return
		}
		again := EncodeImageMeta(m)
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x, encodes back to %x", payload, again)
		}
		if m2, err := DecodeImageMeta(again); err != nil || m2 != m {
			t.Fatalf("round trip: %+v → %+v (%v)", m, m2, err)
		}
	})
}

// FuzzDecodeMediaObject: the same for the media objects a wireless
// member's inbox takes from the base station, the sketch and text
// renditions of a share.  Seeds: testdata/fuzz/FuzzDecodeMediaObject.
func FuzzDecodeMediaObject(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		o, err := DecodeMediaObject(payload)
		if err != nil {
			return
		}
		again, err := EncodeMediaObject(o)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x, encodes back to %x (%v)", payload, again, err)
		}
		o2, err := DecodeMediaObject(again)
		if err != nil || !reflect.DeepEqual(o2, o) {
			t.Fatalf("round trip: %v → %v (%v)", o, o2, err)
		}
	})
}
