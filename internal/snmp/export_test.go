package snmp

import (
	"fmt"
	"net/netip"
)

// What only the tests call: the allocating conveniences over
// AppendMessage and Message.Decode, a MIB read by OID, and the value
// constructors no instrumentation routine uses.

// EncodeMessage serializes the message in BER into a new buffer.
func EncodeMessage(m *Message) ([]byte, error) { return AppendMessage(nil, m) }

// DecodeMessage parses a BER frame into a new Message.
func DecodeMessage(frame []byte) (*Message, error) {
	m := new(Message)
	if err := m.Decode(frame); err != nil {
		return nil, err
	}
	return m, nil
}

// Get returns the value at exactly oid.
func (m *MIB) Get(oid OID) (Value, error) {
	obj, ok := m.lookup(oid)
	if !ok {
		return Value{}, fmt.Errorf("%w: %s", ErrNoObject, oid)
	}
	return obj.Get(), nil
}

// OctetString returns an OCTET STRING value.
func OctetString(b []byte) Value {
	return Value{Type: TypeOctetString, Bytes: append([]byte(nil), b...)}
}

// ObjectIdentifier returns an OID value.
func ObjectIdentifier(o OID) Value { return Value{Type: TypeObjectIdentifier, OID: o.Clone()} }

// IPAddress returns an IpAddress value.
func IPAddress(a netip.Addr) Value { return Value{Type: TypeIPAddress, IP: a} }

// Counter32 returns a Counter32 value.
func Counter32(v uint32) Value { return Value{Type: TypeCounter32, Uint: uint64(v)} }

// Counter64 returns a Counter64 value.
func Counter64(v uint64) Value { return Value{Type: TypeCounter64, Uint: v} }

// NoSuchObject is the v2c exception for an unknown object.
func NoSuchObject() Value { return Value{Type: TypeNoSuchObject} }
