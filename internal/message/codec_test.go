package message

import (
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"adaptiveqos/internal/selector"
)

func sampleMessage() *Message {
	return &Message{
		Kind:      KindData,
		Sender:    "clientA",
		Seq:       42,
		Timestamp: time.Unix(1_000_000_000, 123456789),
		Selector:  `media == "image" and size <= 1048576`,
		Attrs: selector.Attributes{
			AttrMedia:  selector.S("image"),
			"encoding": selector.S("ezw"),
			AttrSize:   selector.N(1 << 20),
			"color":    selector.B(true),
		},
		Body: []byte("progressive image bits"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Sender != m.Sender || got.Seq != m.Seq {
		t.Errorf("header mismatch: %+v vs %+v", got, m)
	}
	if !got.Timestamp.Equal(m.Timestamp) {
		t.Errorf("timestamp %v != %v", got.Timestamp, m.Timestamp)
	}
	if got.Selector != m.Selector {
		t.Errorf("selector %q != %q", got.Selector, m.Selector)
	}
	gotAttrs := attrMap(got)
	if len(gotAttrs) != len(m.Attrs) {
		t.Fatalf("attrs %v != %v", gotAttrs, m.Attrs)
	}
	for k, v := range m.Attrs {
		if !gotAttrs[k].Equal(v) {
			t.Errorf("attr %q: %v != %v", k, gotAttrs[k], v)
		}
	}
	if string(got.Body) != string(m.Body) {
		t.Errorf("body %q != %q", got.Body, m.Body)
	}
}

func TestEncodeDecodeEmptyFields(t *testing.T) {
	m := &Message{Kind: KindControl, Timestamp: time.Unix(0, 0)}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sender != "" || got.Selector != "" || got.NumAttrs() != 0 || len(got.Body) != 0 {
		t.Errorf("empty message did not round-trip: %+v", got)
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := Encode(&Message{Kind: 0}); !errors.Is(err, ErrBadKind) {
		t.Errorf("zero kind: %v", err)
	}
	if _, err := Encode(&Message{Kind: 99}); !errors.Is(err, ErrBadKind) {
		t.Errorf("kind 99: %v", err)
	}
	big := strings.Repeat("x", MaxStringLen+1)
	if _, err := Encode(&Message{Kind: KindEvent, Sender: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized sender: %v", err)
	}
	if _, err := Encode(&Message{Kind: KindEvent, Selector: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized selector: %v", err)
	}
	m := &Message{Kind: KindEvent, Attrs: selector.Attributes{"v": {}}}
	if _, err := Encode(m); !errors.Is(err, ErrBadAttr) {
		t.Errorf("invalid attr value: %v", err)
	}
	m = &Message{Kind: KindEvent, Attrs: selector.Attributes{"v": selector.S(big)}}
	if _, err := Encode(m); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized attr: %v", err)
	}
	m = &Message{Kind: KindEvent, Body: make([]byte, MaxBodyLen+1)}
	if _, err := Encode(m); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized body: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Decode(frame[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: %v", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil frame: %v", err)
	}

	// Flip one byte anywhere before the CRC: must fail the checksum.
	for _, pos := range []int{0, 4, 9, len(frame) / 2, len(frame) - 5} {
		corrupt := append([]byte(nil), frame...)
		corrupt[pos] ^= 0xFF
		if _, err := Decode(corrupt); !errors.Is(err, ErrChecksum) {
			t.Errorf("corruption at %d: got %v, want checksum error", pos, err)
		}
	}

	// Bad magic with a recomputed CRC must be caught by the magic check.
	corrupt := append([]byte(nil), frame...)
	corrupt[0] = 'X'
	fixCRC(corrupt)
	if _, err := Decode(corrupt); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	// Bad kind with valid CRC.
	corrupt = append([]byte(nil), frame...)
	corrupt[4] = 200
	fixCRC(corrupt)
	if _, err := Decode(corrupt); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: %v", err)
	}

	// Trailing garbage inside the checksummed region.
	corrupt = append([]byte(nil), frame[:len(frame)-4]...)
	corrupt = append(corrupt, 0xAB)
	corrupt = append(corrupt, 0, 0, 0, 0)
	fixCRC(corrupt)
	if _, err := Decode(corrupt); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func fixCRC(frame []byte) {
	sum := crc32.ChecksumIEEE(frame[:len(frame)-4])
	frame[len(frame)-4] = byte(sum >> 24)
	frame[len(frame)-3] = byte(sum >> 16)
	frame[len(frame)-2] = byte(sum >> 8)
	frame[len(frame)-1] = byte(sum)
}

func TestMatchProfile(t *testing.T) {
	m := sampleMessage()
	match := selector.Attributes{"media": selector.S("image"), "size": selector.N(1024)}
	if !m.MatchProfile(match) {
		t.Error("expected selector match")
	}
	if m.MatchProfile(selector.Attributes{"media": selector.S("text")}) {
		t.Error("unexpected match")
	}
	m.Selector = ""
	if !m.MatchProfile(nil) {
		t.Error("empty selector should match everything")
	}
	m.Selector = "media =="
	if m.MatchProfile(match) {
		t.Error("malformed selector must fail closed")
	}
}

func TestCloneAndString(t *testing.T) {
	m := sampleMessage()
	if s := m.String(); !strings.Contains(s, "clientA") || !strings.Contains(s, "data") {
		t.Errorf("String = %q", s)
	}
	if v, ok := m.Attr(AttrSize); !ok || v.Num() != 1<<20 {
		t.Error("Attr lookup failed")
	}
	for _, k := range []Kind{KindEvent, KindData, KindProfile, KindControl, Kind(77)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String empty", k)
		}
	}
}

// TestQuickCodecRoundTrip: arbitrary messages survive encode/decode.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Selectors must compile (Decode rejects uncompilable ones), so
		// draw from a pool of valid sources; corrupt selectors are
		// covered by TestDecodeRejectsBadSelector.
		validSelectors := []string{
			"",
			"true",
			`media == "image"`,
			`size <= 1048576 and exists(cap.display)`,
			`encoding in ["MPEG2", "JPEG"] or topic == "medical"`,
		}
		m := &Message{
			Kind:      Kind(1 + r.Intn(4)),
			Sender:    randStr(r, 20),
			Seq:       r.Uint32(),
			Timestamp: time.Unix(r.Int63n(1<<32), r.Int63n(1e9)),
			Selector:  validSelectors[r.Intn(len(validSelectors))],
			Attrs:     make(selector.Attributes),
			Body:      randBytes(r, 2000),
		}
		for i, n := 0, r.Intn(6); i < n; i++ {
			name := randStr(r, 12)
			if name == "" {
				name = "a"
			}
			switch r.Intn(3) {
			case 0:
				m.Attrs[name] = selector.S(randStr(r, 30))
			case 1:
				m.Attrs[name] = selector.N(math.Float64frombits(r.Uint64()))
			default:
				m.Attrs[name] = selector.B(r.Intn(2) == 0)
			}
		}
		// NaN attribute values are legal; normalize for comparison below.
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(frame)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if got.Kind != m.Kind || got.Sender != m.Sender || got.Seq != m.Seq ||
			!got.Timestamp.Equal(m.Timestamp) || got.Selector != m.Selector ||
			string(got.Body) != string(m.Body) || got.NumAttrs() != len(m.Attrs) {
			return false
		}
		for k, v := range m.Attrs {
			if w, _ := got.Attr(k); !w.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// attrCounts straddle each size a received message keeps its
// attributes in: none, the four-slot allocation, the eight-slot one,
// and a slice of its own.
var attrCounts = []int{0, 1, 4, 5, 8, 9, 17, MaxAttrs}

// TestQuickReceivedReencodes: a received message, which holds its
// attributes in a name-ordered slice instead of a map, encodes to the
// frame it came from, at every attribute count.
func TestQuickReceivedReencodes(t *testing.T) {
	for _, n := range attrCounts {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			m := &Message{Kind: KindEvent, Sender: randStr(r, 8), Attrs: make(selector.Attributes, n)}
			for len(m.Attrs) < n {
				name := randStr(r, 12)
				switch r.Intn(3) {
				case 0:
					m.Attrs[name] = selector.S(randStr(r, 40))
				case 1:
					m.Attrs[name] = selector.N(math.Float64frombits(r.Uint64()))
				default:
					m.Attrs[name] = selector.B(r.Intn(2) == 0)
				}
			}
			frame, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Encode(got)
			if err != nil || got.NumAttrs() != n || string(again) != string(frame) {
				t.Logf("%d attributes, seed %d: %d decoded, re-encoding %d B of %d (%v)", n, seed, got.NumAttrs(), len(again), len(frame), err)
				return false
			}
			return true
		}
		runs := 50
		if n == MaxAttrs {
			runs = 3
		}
		if err := quick.Check(f, &quick.Config{MaxCount: runs}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickDecodeNeverPanics: random garbage and random truncations of
// valid frames must produce errors, not panics or giant allocations.
func TestQuickDecodeNeverPanics(t *testing.T) {
	valid, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var frame []byte
		if r.Intn(2) == 0 {
			frame = randBytes(r, 200)
		} else {
			frame = append([]byte(nil), valid[:r.Intn(len(valid)+1)]...)
		}
		_, _ = Decode(frame) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randStr(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max+1))
	for i := range b {
		b[i] = byte(32 + r.Intn(95))
	}
	return string(b)
}

func randBytes(r *rand.Rand, max int) []byte {
	b := make([]byte, r.Intn(max+1))
	r.Read(b)
	return b
}

// TestAttributesEncodeInNameOrder: a message has one encoding whatever
// order its map iterates in — on both sides of the attribute count at
// which AppendEncode stops sorting on the stack.
func TestAttributesEncodeInNameOrder(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 40} {
		m := &Message{Kind: KindEvent, Attrs: selector.Attributes{}}
		for i := 0; i < n; i++ {
			m.Attrs[strings.Repeat("k", 1+(i*7)%5)+string(rune('a'+i%26))+string(rune('A'+i/26))] = selector.N(float64(i))
		}
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		d, prev := decoder{buf: v.attrs}, ""
		for i := 0; i < n; i++ {
			name, _, _, err := d.attr()
			if err != nil || string(name) <= prev {
				t.Fatalf("%d attributes: entry %d is %q after %q (%v)", n, i, name, prev, err)
			}
			prev = string(name)
		}
		if again, _ := Encode(m); string(again) != string(frame) {
			t.Errorf("%d attributes: two encodings of one message differ", n)
		}
	}
}
