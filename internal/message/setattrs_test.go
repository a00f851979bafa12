package message

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"adaptiveqos/internal/selector"
)

// TestSetAttrsEncodesAsTheMap: a sender's name-sorted attribute slice
// goes out as exactly the frame the same attributes in a map do, for
// each attribute set the programs publish, so moving a sender from one
// form to the other moves no wire byte (wire.golden pins the map form).
func TestSetAttrsEncodesAsTheMap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  Kind
		attrs []Attr
	}{
		{"chat", KindEvent, []Attr{
			{Name: AttrApp, Value: selector.S("chat")},
			{Name: AttrMedia, Value: selector.S("text")},
			{Name: AttrSize, Value: selector.N(14)},
		}},
		{"stroke", KindEvent, []Attr{
			{Name: AttrApp, Value: selector.S("whiteboard")},
			{Name: AttrMedia, Value: selector.S("stroke")},
		}},
		{"image packet", KindData, []Attr{
			{Name: AttrApp, Value: selector.S("imageviewer")},
			{Name: AttrLevel, Value: selector.N(7)},
			{Name: AttrMedia, Value: selector.S("image")},
			{Name: AttrObject, Value: selector.S("scan")},
		}},
		{"image announce", KindEvent, []Attr{
			{Name: AttrApp, Value: selector.S("imageviewer")},
			{Name: "color", Value: selector.B(false)},
			{Name: "description", Value: selector.S("chest scan")},
			{Name: "encoding", Value: selector.S("ezw")},
			{Name: "height", Value: selector.N(64)},
			{Name: AttrMedia, Value: selector.S("image")},
			{Name: AttrObject, Value: selector.S("scan")},
			{Name: AttrSize, Value: selector.N(2048)},
			{Name: "width", Value: selector.N(64)},
		}},
		{"reception report", KindControl, []Attr{
			{Name: "ctrl", Value: selector.S("rtcp-rr")},
			{Name: "fraction-lost", Value: selector.N(0.125)},
			{Name: "jitter-ms", Value: selector.N(3)},
			{Name: "subject", Value: selector.S("alice")},
		}},
		{"no attributes", KindControl, nil},
	} {
		stamp := func() *Message {
			return &Message{Kind: tc.kind, Seq: 9, Sender: "alice", Timestamp: time.Unix(5, 6),
				Selector: `role == "doctor"`, Body: []byte("body")}
		}
		fromMap := stamp()
		fromMap.Attrs = selector.Attributes{}
		for _, a := range tc.attrs {
			fromMap.Attrs[a.Name] = a.Value
		}
		fromSlice := stamp()
		fromSlice.SetAttrs(tc.attrs)
		want, err := Encode(fromMap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(fromSlice)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the slice form encodes to\n%x\nthe map form to\n%x", tc.name, got, want)
		}
		if conv := AttrsOf(fromMap.Attrs); !slices.Equal(conv, tc.attrs) {
			t.Errorf("%s: AttrsOf gives %v, want %v", tc.name, conv, tc.attrs)
		}
	}
}

// TestSetAttrsSetsTheSliceForm: a sender that set the map and then the
// slice sends the slice, and reads it back through Attr.
func TestSetAttrsSetsTheSliceForm(t *testing.T) {
	m := &Message{Kind: KindEvent, Attrs: selector.Attributes{"stale": selector.N(1)}}
	m.SetAttrs([]Attr{{Name: AttrApp, Value: selector.S("chat")}})
	if m.Attrs != nil || m.NumAttrs() != 1 {
		t.Fatalf("after SetAttrs: Attrs %v, %d attributes", m.Attrs, m.NumAttrs())
	}
	if v, ok := m.Attr(AttrApp); !ok || v.Str() != "chat" {
		t.Errorf("Attr(app) = %v, %v", v, ok)
	}
	if _, ok := m.Attr("stale"); ok {
		t.Error("the map's attribute survived SetAttrs")
	}
}

// TestSetAttrsRejectsDisorder: names out of order or repeated would
// encode a frame no encoder of the map form writes, so SetAttrs panics.
func TestSetAttrsRejectsDisorder(t *testing.T) {
	for name, attrs := range map[string][]Attr{
		"unsorted":  {{Name: AttrMedia, Value: selector.S("text")}, {Name: AttrApp, Value: selector.S("chat")}},
		"duplicate": {{Name: AttrApp, Value: selector.S("chat")}, {Name: AttrApp, Value: selector.S("whiteboard")}},
		"late":      {{Name: "a"}, {Name: "b"}, {Name: "d"}, {Name: "c"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetAttrs took %v", name, attrs)
				}
			}()
			new(Message).SetAttrs(attrs)
		}()
	}
}
