package snmp

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64} {
		enc := appendInt(nil, tagInteger, v)
		r := berReader{buf: enc}
		content, err := r.expect(tagInteger)
		if err != nil {
			t.Fatalf("int %d: %v", v, err)
		}
		got, err := parseInt(content)
		if err != nil {
			t.Fatalf("int %d: %v", v, err)
		}
		if got != v {
			t.Errorf("int round trip %d -> %d (bytes %x)", v, got, content)
		}
	}
	if _, err := parseInt(nil); err == nil {
		t.Error("empty integer should fail")
	}
	if _, err := parseInt(make([]byte, 9)); err == nil {
		t.Error("9-byte integer should fail")
	}
}

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, math.MaxUint32, math.MaxUint64} {
		enc := appendUint(nil, tagCounter64, v)
		r := berReader{buf: enc}
		content, err := r.expect(tagCounter64)
		if err != nil {
			t.Fatalf("uint %d: %v", v, err)
		}
		got, err := parseUint(content)
		if err != nil {
			t.Fatalf("uint %d: %v", v, err)
		}
		if got != v {
			t.Errorf("uint round trip %d -> %d", v, got)
		}
	}
	if _, err := parseUint(nil); err == nil {
		t.Error("empty uint should fail")
	}
	if _, err := parseUint(append([]byte{1}, make([]byte, 8)...)); err == nil {
		t.Error("9 significant bytes should fail")
	}
}

func TestLongFormLength(t *testing.T) {
	content := make([]byte, 300) // needs long-form length
	for i := range content {
		content[i] = byte(i)
	}
	enc := appendTLV(nil, tagOctetString, content)
	r := berReader{buf: enc}
	got, err := r.expect(tagOctetString)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("long-form content mismatch")
	}

	// Malformed long forms.
	for _, bad := range [][]byte{
		{tagOctetString, 0x80},                   // indefinite length
		{tagOctetString, 0x85, 1, 1, 1, 1, 1},    // 5 length octets
		{tagOctetString, 0x82, 0xFF, 0xFF, 0x00}, // length beyond buffer
		{tagOctetString},                         // no length at all
	} {
		r := berReader{buf: bad}
		if _, _, err := r.readTLV(); err == nil {
			t.Errorf("malformed length %x accepted", bad)
		}
	}
}

func sampleVarBinds() []VarBind {
	return []VarBind{
		{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: String8("host-a")},
		{OID: MustOID("1.3.6.1.2.1.1.3.0"), Value: TimeTicks(123456)},
		{OID: MustOID("1.3.6.1.2.1.2.2.1.10.1"), Value: Counter32(99)},
		{OID: MustOID("1.3.6.1.2.1.25.3.3.1.2.1"), Value: Integer(-42)},
		{OID: MustOID("1.3.6.1.4.1.1.1"), Value: Gauge32(4294967295)},
		{OID: MustOID("1.3.6.1.4.1.1.2"), Value: Counter64(math.MaxUint64)},
		{OID: MustOID("1.3.6.1.4.1.1.3"), Value: Null()},
		{OID: MustOID("1.3.6.1.4.1.1.4"), Value: ObjectIdentifier(MustOID("1.3.6.1.4.1"))},
		{OID: MustOID("1.3.6.1.4.1.1.5"), Value: IPAddress(netip.AddrFrom4([4]byte{192, 168, 1, 10}))},
		{OID: MustOID("1.3.6.1.4.1.1.6"), Value: OctetString([]byte{0, 1, 2, 255})},
	}
}

func valuesEqual(a, b Value) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TypeInteger:
		return a.Int == b.Int
	case TypeOctetString, TypeOpaque:
		return bytes.Equal(a.Bytes, b.Bytes)
	case TypeObjectIdentifier:
		return slices.Equal(a.OID, b.OID)
	case TypeIPAddress:
		return a.IP == b.IP
	case TypeCounter32, TypeGauge32, TypeTimeTicks, TypeCounter64:
		return a.Uint == b.Uint
	default:
		return true
	}
}

func TestMessageRoundTrip(t *testing.T) {
	msg := &Message{
		Version:   V2c,
		Community: "public",
		PDU: PDU{
			Type:      GetResponse,
			RequestID: 987654,
			VarBinds:  sampleVarBinds(),
		},
	}
	frame, err := EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != msg.Version || got.Community != msg.Community ||
		got.PDU.Type != msg.PDU.Type || got.PDU.RequestID != msg.PDU.RequestID {
		t.Errorf("header: %+v", got)
	}
	if len(got.PDU.VarBinds) != len(msg.PDU.VarBinds) {
		t.Fatalf("varbinds: %d vs %d", len(got.PDU.VarBinds), len(msg.PDU.VarBinds))
	}
	for i, vb := range msg.PDU.VarBinds {
		g := got.PDU.VarBinds[i]
		if !slices.Equal(g.OID, vb.OID) || !valuesEqual(g.Value, vb.Value) {
			t.Errorf("varbind %d: %v=%v vs %v=%v", i, g.OID, g.Value, vb.OID, vb.Value)
		}
	}
}

func TestMessageVersionsAndExceptions(t *testing.T) {
	for _, ver := range []Version{V1, V2c} {
		msg := &Message{
			Version:   ver,
			Community: "c",
			PDU: PDU{
				Type:        GetResponse,
				RequestID:   -5,
				ErrorStatus: NoSuchName,
				ErrorIndex:  2,
				VarBinds:    []VarBind{{OID: MustOID("1.3"), Value: Null()}},
			},
		}
		frame, err := EncodeMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != ver || got.PDU.ErrorStatus != NoSuchName || got.PDU.ErrorIndex != 2 ||
			got.PDU.RequestID != -5 {
			t.Errorf("%s: %+v", ver, got.PDU)
		}
	}

	// v2c exception values round-trip.
	for _, v := range []Value{NoSuchObject(), NoSuchInstance(), EndOfMibView()} {
		msg := &Message{Version: V2c, PDU: PDU{Type: GetResponse,
			VarBinds: []VarBind{{OID: MustOID("1.3"), Value: v}}}}
		frame, _ := EncodeMessage(msg)
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.PDU.VarBinds[0].Value.Type != v.Type {
			t.Errorf("exception %s round trip: %s", v.Type, got.PDU.VarBinds[0].Value.Type)
		}
		if !v.IsException() {
			t.Errorf("%s should be an exception", v.Type)
		}
	}
}

func TestEncodeMessageErrors(t *testing.T) {
	if _, err := EncodeMessage(&Message{Version: 3}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	bad := &Message{Version: V2c, PDU: PDU{Type: GetRequest,
		VarBinds: []VarBind{{OID: OID{9, 9}, Value: Null()}}}}
	if _, err := EncodeMessage(bad); !errors.Is(err, ErrBadOID) {
		t.Errorf("bad varbind OID: %v", err)
	}
	bad = &Message{Version: V2c, PDU: PDU{Type: GetRequest,
		VarBinds: []VarBind{{OID: MustOID("1.3"), Value: Value{Type: 99}}}}}
	if _, err := EncodeMessage(bad); !errors.Is(err, ErrBadValue) {
		t.Errorf("bad value type: %v", err)
	}
	// IpAddress must be IPv4.
	bad = &Message{Version: V2c, PDU: PDU{Type: GetRequest,
		VarBinds: []VarBind{{OID: MustOID("1.3"), Value: IPAddress(netip.MustParseAddr("::1"))}}}}
	if _, err := EncodeMessage(bad); !errors.Is(err, ErrBadValue) {
		t.Errorf("IPv6 IpAddress: %v", err)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	good, _ := EncodeMessage(&Message{Version: V2c, Community: "p",
		PDU: PDU{Type: GetRequest, RequestID: 1,
			VarBinds: []VarBind{{OID: MustOID("1.3.6"), Value: Null()}}}})

	cases := [][]byte{
		nil,
		{0x30},
		good[:len(good)-1], // truncated
		append(good, 0x00), // trailing
		{0x04, 0x01, 0x00}, // wrong top tag
	}
	for _, frame := range cases {
		if _, err := DecodeMessage(frame); err == nil {
			t.Errorf("frame %x decoded", frame)
		}
	}

	// Unknown version.
	m := &Message{Version: V2c, PDU: PDU{Type: GetRequest}}
	frame, _ := EncodeMessage(m)
	// version INTEGER is at a fixed early offset: seq hdr (2) + tag(1)+len(1) → value byte at 5... locate by rebuilding.
	bad := bytes.Replace(frame, []byte{tagInteger, 1, 1}, []byte{tagInteger, 1, 9}, 1)
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version decode: %v", err)
	}

	// A request-id wider than 32 bits is refused, not wrapped.
	wide := bytes.Replace(frame, []byte{tagInteger, 1, 0, tagInteger}, []byte{tagInteger, 5, 2, 0, 0, 0, 0, tagInteger}, 1)
	wide[1] += 4
	wide[bytes.IndexByte(wide, byte(GetRequest))+1] += 4
	if _, err := DecodeMessage(wide); !errors.Is(err, ErrBadMessage) {
		t.Errorf("5-byte request-id: %v", err)
	}

	// Unknown PDU tag.
	idx := bytes.IndexByte(frame, byte(GetRequest))
	bad = append([]byte(nil), frame...)
	bad[idx] = 0xAF
	if _, err := DecodeMessage(bad); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad PDU tag: %v", err)
	}
}

func TestValueHelpers(t *testing.T) {
	if n, ok := Integer(-7).Number(); !ok || n != -7 {
		t.Error("Integer Number")
	}
	if n, ok := Counter64(1 << 40).Number(); !ok || n != float64(uint64(1)<<40) {
		t.Error("Counter64 Number")
	}
	if _, ok := String8("x").Number(); ok {
		t.Error("string should not be numeric")
	}
	if _, ok := Null().Number(); ok {
		t.Error("null should not be numeric")
	}
	// String rendering covers all types.
	vals := []Value{Null(), Integer(1), String8("s"), ObjectIdentifier(MustOID("1.3")),
		IPAddress(netip.AddrFrom4([4]byte{1, 2, 3, 4})), Counter32(1), Gauge32(2),
		TimeTicks(3), Counter64(4), {Type: TypeOpaque, Bytes: []byte{0xAB}},
		NoSuchObject(), NoSuchInstance(), EndOfMibView(), {Type: 99}}
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("empty String for %v", v.Type)
		}
		if v.Type.String() == "" {
			t.Errorf("empty type name for %d", v.Type)
		}
	}
	for _, x := range []fmt_Stringer{V1, V2c, Version(9), GetRequest, GetNextRequest,
		GetResponse, SetRequest, GetBulkRequest, InformRequest, TrapV2, PDUType(0x11),
		NoError, TooBig, NoSuchName, BadValue, ReadOnly, GenErr, NotWritable, ErrorStatus(42)} {
		if x.String() == "" {
			t.Errorf("empty String for %#v", x)
		}
	}
}

type fmt_Stringer interface{ String() string }

// TestQuickMessageRoundTrip: random messages survive the codec.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		msg := &Message{
			Version:   Version(r.Intn(2)),
			Community: randOctets(r, 16),
			PDU: PDU{
				Type:        []PDUType{GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest, TrapV2}[r.Intn(6)],
				RequestID:   int32(r.Uint32()),
				ErrorStatus: ErrorStatus(r.Intn(6)),
				ErrorIndex:  r.Intn(10),
			},
		}
		for i, n := 0, r.Intn(8); i < n; i++ {
			msg.PDU.VarBinds = append(msg.PDU.VarBinds, VarBind{
				OID:   randOIDq(r),
				Value: randValue(r),
			})
		}
		frame, err := EncodeMessage(msg)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		return sameMessage(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeGarbageNeverPanics: arbitrary bytes produce errors,
// not panics.
func TestQuickDecodeGarbageNeverPanics(t *testing.T) {
	valid, _ := EncodeMessage(&Message{Version: V2c, Community: "p",
		PDU: PDU{Type: GetRequest, VarBinds: sampleVarBinds()}})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var frame []byte
		switch r.Intn(3) {
		case 0:
			frame = make([]byte, r.Intn(100))
			r.Read(frame)
		case 1:
			frame = append([]byte(nil), valid[:r.Intn(len(valid)+1)]...)
		default:
			frame = append([]byte(nil), valid...)
			if len(frame) > 0 {
				frame[r.Intn(len(frame))] ^= byte(1 + r.Intn(255))
			}
		}
		_, _ = DecodeMessage(frame)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func randOctets(r *rand.Rand, max int) string {
	b := make([]byte, r.Intn(max+1))
	r.Read(b)
	return string(b)
}

func randOIDq(r *rand.Rand) OID {
	n := 2 + r.Intn(8)
	o := make(OID, n)
	o[0] = uint32(r.Intn(3))
	if o[0] < 2 {
		o[1] = uint32(r.Intn(40))
	} else {
		o[1] = uint32(r.Intn(500))
	}
	for i := 2; i < n; i++ {
		o[i] = r.Uint32() >> uint(r.Intn(24))
	}
	return o
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(10) {
	case 0:
		return Null()
	case 1:
		return Integer(int64(r.Uint64()))
	case 2:
		return OctetString([]byte(randOctets(r, 40)))
	case 3:
		return ObjectIdentifier(randOIDq(r))
	case 4:
		return IPAddress(netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}))
	case 5:
		return Counter32(r.Uint32())
	case 6:
		return Gauge32(r.Uint32())
	case 7:
		return TimeTicks(r.Uint32())
	case 8:
		return Counter64(r.Uint64())
	default:
		return []Value{NoSuchObject(), NoSuchInstance(), EndOfMibView()}[r.Intn(3)]
	}
}
