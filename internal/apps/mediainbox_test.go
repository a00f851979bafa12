package apps

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

func TestMediaObjectCodecRoundTrip(t *testing.T) {
	objs := []*media.Object{
		textObject("plain text payload"),
		{Kind: media.KindSketch, Format: media.FormatSketch,
			Data: []byte{1, 2, 3}, Description: "a sketch", Width: 32, Height: 16},
		{Kind: media.KindSpeech, Format: media.FormatSpeech, Data: nil},
	}
	if im, err := media.EncodeImage(wavelet.Circles(16, 16), "rings"); err == nil {
		objs = append(objs, im)
	} else {
		t.Fatal(err)
	}
	for _, o := range objs {
		payload, err := EncodeMediaObject(o)
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		got, err := DecodeMediaObject(payload)
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if got.Kind != o.Kind || got.Format != o.Format || got.Description != o.Description ||
			got.Width != o.Width || got.Height != o.Height || string(got.Data) != string(o.Data) || got.Sketch != o.Sketch {
			t.Errorf("round trip: %+v vs %+v", got, o)
		}
	}
}

func TestMediaObjectCodecRejects(t *testing.T) {
	long := strings.Repeat("x", 300)
	if _, err := EncodeMediaObject(&media.Object{Kind: media.Kind(long)}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("long kind: %v", err)
	}
	if _, err := EncodeMediaObject(&media.Object{Kind: "t", Format: long}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("long format: %v", err)
	}
	if _, err := EncodeMediaObject(&media.Object{Kind: "t",
		Description: strings.Repeat("d", 1<<16)}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("long description: %v", err)
	}

	if _, err := EncodeMediaObject(&media.Object{Kind: "t",
		Sketch: strings.Repeat("s", 1<<16)}); !errors.Is(err, ErrBadEvent) {
		t.Errorf("long sketch: %v", err)
	}

	good, _ := EncodeMediaObject(textObject("ok"))
	sketched := textObject("ok")
	sketched.Sketch = "SK01"
	withSketch, _ := EncodeMediaObject(sketched)
	for _, bad := range [][]byte{
		nil,
		good[:3],
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xFF),
		append(append([]byte(nil), good...), 0, 0),      // an empty sketch
		withSketch[:len(withSketch)-1],                  // a sketch cut short
		append(append([]byte(nil), good...), 0, 3, 'S'), // a length that lies
	} {
		if _, err := DecodeMediaObject(bad); !errors.Is(err, ErrBadEvent) {
			t.Errorf("bad payload %v decoded: %v", bad, err)
		}
	}
}

func TestMediaInbox(t *testing.T) {
	b := NewMediaInbox()
	if _, ok := b.Latest(); ok {
		t.Error("empty inbox should have no latest")
	}
	p1, _ := EncodeMediaObject(textObject("first"))
	p2, _ := EncodeMediaObject(textObject("second"))
	if err := b.Apply("alice", p1); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply("bob", p2); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("len = %d", b.Len())
	}
	last, ok := b.Latest()
	if !ok || last.Sender != "bob" || string(last.Object.Data) != "second" {
		t.Errorf("latest: %+v", last)
	}
	items := b.Items()
	items[0].Sender = "mutated"
	if b.Items()[0].Sender == "mutated" {
		t.Error("Items aliases internal state")
	}

	if err := b.Apply("x", []byte("garbage")); !errors.Is(err, ErrBadEvent) {
		t.Errorf("garbage apply: %v", err)
	}

	// Bounded inbox keeps the most recent.
	b.MaxItems = 3
	for i := 0; i < 10; i++ {
		p, _ := EncodeMediaObject(textObject(strings.Repeat("z", i+1)))
		b.Apply("s", p)
	}
	if b.Len() != 3 {
		t.Errorf("bounded len = %d", b.Len())
	}
	last, _ = b.Latest()
	if len(last.Object.Data) != 10 {
		t.Errorf("latest after bound: %q", last.Object.Data)
	}
}

// TestQuickMediaObjectRoundTrip: arbitrary objects survive the codec.
func TestQuickMediaObjectRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		o := &media.Object{
			Kind:        media.Kind(randChars(r, 30)),
			Format:      randChars(r, 30),
			Description: randChars(r, 200),
			Width:       r.Intn(1 << 16),
			Height:      r.Intn(1 << 16),
			Data:        make([]byte, r.Intn(500)),
			Sketch:      randChars(r, 200),
		}
		r.Read(o.Data)
		payload, err := EncodeMediaObject(o)
		if err != nil {
			return false
		}
		got, err := DecodeMediaObject(payload)
		return err == nil && got.Kind == o.Kind && got.Format == o.Format &&
			got.Description == o.Description && got.Width == o.Width &&
			got.Height == o.Height && string(got.Data) == string(o.Data) && got.Sketch == o.Sketch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randChars(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max+1))
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}

// textObject builds a plain text media object.
func textObject(s string) *media.Object {
	return &media.Object{Kind: media.KindText, Format: media.FormatText, Data: []byte(s), Description: s}
}
