package message

import (
	"bytes"
	"errors"
	"testing"

	"adaptiveqos/internal/selector"
)

// A corrupt selector string arriving off the wire must be rejected at
// decode time, not carried to the dispatch layer.  Encode itself stays
// permissive (the wire format can represent any string), which is
// exactly how a corrupted-but-CRC-valid or maliciously crafted frame
// presents to a receiver.
func TestDecodeRejectsBadSelector(t *testing.T) {
	m := sampleMessage()
	m.Selector = `media == ` // truncated expression: lexes, fails to parse
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(frame); !errors.Is(err, ErrBadSelector) {
		t.Fatalf("decode of corrupt selector: got %v, want ErrBadSelector", err)
	}

	// Fail-closed at the dispatch layer too, for messages constructed
	// in-process rather than decoded.
	if m.MatchProfile(selector.Attributes{"media": selector.S("image")}) {
		t.Error("malformed selector must not match any profile")
	}
	if _, err := m.CompiledSelector(); err == nil {
		t.Error("CompiledSelector must surface the compile error")
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	m := sampleMessage()
	plain, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	appended, err := AppendEncode(append([]byte(nil), prefix...), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended[:len(prefix)], prefix) {
		t.Fatal("AppendEncode clobbered the destination prefix")
	}
	if !bytes.Equal(appended[len(prefix):], plain) {
		t.Fatal("AppendEncode frame differs from Encode frame")
	}
	if _, err := Decode(appended[len(prefix):]); err != nil {
		t.Fatalf("appended frame does not decode: %v", err)
	}
}

func TestFragmentAppendMarshal(t *testing.T) {
	f := Fragment{MsgID: 7, Index: 2, Count: 5, Chunk: []byte("hello")}
	if !bytes.Equal(f.AppendMarshal(nil), f.AppendMarshal(nil)) {
		t.Fatal("AppendMarshal(nil) differs from Marshal")
	}
	out := f.AppendMarshal([]byte{0xAA})
	if out[0] != 0xAA {
		t.Fatal("AppendMarshal clobbered the destination prefix")
	}
	got, err := parseFragment(out[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.MsgID != 7 || got.Index != 2 || got.Count != 5 || string(got.Chunk) != "hello" {
		t.Fatalf("round trip = %+v", got)
	}
}

// WrapMessage recycles its scratch buffer between calls; the datagrams
// it returns must be fully independent copies, both on the whole-frame
// and the fragmented path.
func TestWrapMessagePooledBufferIsolation(t *testing.T) {
	for _, mtu := range []int{0, 256} { // 0 = whole frame; 256 forces fragmenting
		env := &Enveloper{MTU: mtu}
		unwrap := NewUnwrapper()

		m1 := sampleMessage()
		m1.Body = bytes.Repeat([]byte{1}, 900)
		d1, err := env.WrapMessage(m1)
		if err != nil {
			t.Fatal(err)
		}
		// A second wrap reuses the pooled scratch buffer; if the first
		// datagrams aliased it they would now be corrupt.
		m2 := sampleMessage()
		m2.Body = bytes.Repeat([]byte{2}, 900)
		if _, err := env.WrapMessage(m2); err != nil {
			t.Fatal(err)
		}

		var got *Message
		for _, d := range d1 {
			frame, err := unwrap.Unwrap("peer", d)
			if err != nil {
				t.Fatal(err)
			}
			if frame != nil {
				if got, err = Decode(frame); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got == nil {
			t.Fatalf("mtu %d: message never completed", mtu)
		}
		if !bytes.Equal(got.Body, m1.Body) {
			t.Fatalf("mtu %d: body corrupted by pooled-buffer reuse", mtu)
		}
	}
}

func TestWrapMessagePropagatesEncodeError(t *testing.T) {
	env := &Enveloper{}
	if _, err := env.WrapMessage(&Message{Kind: Kind(99)}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind through WrapMessage: %v", err)
	}
}
