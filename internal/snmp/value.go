package snmp

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
)

// ValueType enumerates SNMP variable binding value types.
type ValueType uint8

// Value types.
const (
	TypeNull ValueType = iota
	TypeInteger
	TypeOctetString
	TypeObjectIdentifier
	TypeIPAddress
	TypeCounter32
	TypeGauge32
	TypeTimeTicks
	TypeCounter64
	TypeOpaque
	// v2c exception values, returned in place of data.
	TypeNoSuchObject
	TypeNoSuchInstance
	TypeEndOfMibView
)

// String names the value type.
func (t ValueType) String() string {
	switch t {
	case TypeNull:
		return "Null"
	case TypeInteger:
		return "INTEGER"
	case TypeOctetString:
		return "OCTET STRING"
	case TypeObjectIdentifier:
		return "OBJECT IDENTIFIER"
	case TypeIPAddress:
		return "IpAddress"
	case TypeCounter32:
		return "Counter32"
	case TypeGauge32:
		return "Gauge32"
	case TypeTimeTicks:
		return "TimeTicks"
	case TypeCounter64:
		return "Counter64"
	case TypeOpaque:
		return "Opaque"
	case TypeNoSuchObject:
		return "noSuchObject"
	case TypeNoSuchInstance:
		return "noSuchInstance"
	case TypeEndOfMibView:
		return "endOfMibView"
	default:
		return fmt.Sprintf("ValueType(%d)", uint8(t))
	}
}

// Value is an SNMP variable value.
type Value struct {
	Type  ValueType
	Int   int64  // TypeInteger
	Uint  uint64 // Counter32/Gauge32/TimeTicks/Counter64
	Bytes []byte // OctetString, Opaque
	OID   OID    // ObjectIdentifier
	IP    netip.Addr
}

// Value constructors.

// Null returns a NULL value.
func Null() Value { return Value{Type: TypeNull} }

// Integer returns an INTEGER value.
func Integer(v int64) Value { return Value{Type: TypeInteger, Int: v} }

// String8 returns an OCTET STRING value from a Go string.
func String8(s string) Value { return Value{Type: TypeOctetString, Bytes: []byte(s)} }

// Gauge32 returns a Gauge32 value.
func Gauge32(v uint32) Value { return Value{Type: TypeGauge32, Uint: uint64(v)} }

// TimeTicks returns a TimeTicks value (hundredths of a second).
func TimeTicks(v uint32) Value { return Value{Type: TypeTimeTicks, Uint: uint64(v)} }

// NoSuchInstance is the v2c exception for an unknown instance.
func NoSuchInstance() Value { return Value{Type: TypeNoSuchInstance} }

// EndOfMibView is the v2c exception marking the end of the MIB.
func EndOfMibView() Value { return Value{Type: TypeEndOfMibView} }

// IsException reports whether the value is a v2c exception.
func (v Value) IsException() bool {
	return v.Type == TypeNoSuchObject || v.Type == TypeNoSuchInstance || v.Type == TypeEndOfMibView
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInteger:
		return fmt.Sprintf("INTEGER: %d", v.Int)
	case TypeOctetString:
		return fmt.Sprintf("STRING: %q", v.Bytes)
	case TypeObjectIdentifier:
		return "OID: " + v.OID.String()
	case TypeIPAddress:
		return "IpAddress: " + v.IP.String()
	case TypeCounter32:
		return fmt.Sprintf("Counter32: %d", v.Uint)
	case TypeGauge32:
		return fmt.Sprintf("Gauge32: %d", v.Uint)
	case TypeTimeTicks:
		return fmt.Sprintf("Timeticks: %d", v.Uint)
	case TypeCounter64:
		return fmt.Sprintf("Counter64: %d", v.Uint)
	case TypeOpaque:
		return fmt.Sprintf("Opaque: %x", v.Bytes)
	default:
		return v.Type.String()
	}
}

// Number returns the value as a float64 for QoS computations, covering
// the numeric SNMP types.  ok is false for non-numeric values.
func (v Value) Number() (float64, bool) {
	switch v.Type {
	case TypeInteger:
		return float64(v.Int), true
	case TypeCounter32, TypeGauge32, TypeTimeTicks, TypeCounter64:
		return float64(v.Uint), true
	default:
		return 0, false
	}
}

// ErrBadValue reports an unencodable or undecodable value.
var ErrBadValue = errors.New("snmp: bad value")

// valueLen is the length of v's BER content, or an error for a value
// BER cannot carry.
func valueLen(v Value) (int, error) {
	switch v.Type {
	case TypeNull, TypeNoSuchObject, TypeNoSuchInstance, TypeEndOfMibView:
		return 0, nil
	case TypeInteger:
		return intLen(v.Int), nil
	case TypeOctetString, TypeOpaque:
		return len(v.Bytes), nil
	case TypeObjectIdentifier:
		return oidLen(v.OID)
	case TypeIPAddress:
		if !v.IP.Is4() {
			return 0, fmt.Errorf("%w: IpAddress must be IPv4", ErrBadValue)
		}
		return 4, nil
	case TypeCounter32, TypeGauge32, TypeTimeTicks, TypeCounter64:
		return uintLen(v.Uint), nil
	default:
		return 0, fmt.Errorf("%w: type %s", ErrBadValue, v.Type)
	}
}

// valueTags maps each value type to its BER tag.
var valueTags = [...]byte{
	TypeNull:             tagNull,
	TypeInteger:          tagInteger,
	TypeOctetString:      tagOctetString,
	TypeObjectIdentifier: tagOID,
	TypeIPAddress:        tagIPAddress,
	TypeCounter32:        tagCounter32,
	TypeGauge32:          tagGauge32,
	TypeTimeTicks:        tagTimeTicks,
	TypeCounter64:        tagCounter64,
	TypeOpaque:           tagOpaque,
	TypeNoSuchObject:     tagNoSuchObject,
	TypeNoSuchInstance:   tagNoSuchInst,
	TypeEndOfMibView:     tagEndOfMibView,
}

// appendValue appends the BER encoding of v, which valueLen accepted.
func appendValue(out []byte, v Value) []byte {
	tag := valueTags[v.Type]
	switch v.Type {
	case TypeInteger:
		return appendInt(out, tag, v.Int)
	case TypeOctetString, TypeOpaque:
		return appendTLV(out, tag, v.Bytes)
	case TypeObjectIdentifier:
		n, _ := oidLen(v.OID)
		out, _ = appendOID(appendHeader(out, tag, n), v.OID)
		return out
	case TypeIPAddress:
		a4 := v.IP.As4()
		return appendTLV(out, tag, a4[:])
	case TypeCounter32, TypeGauge32, TypeTimeTicks, TypeCounter64:
		return appendUint(out, tag, v.Uint)
	default: // Null and the v2c exceptions
		return append(out, tag, 0)
	}
}

// decode parses one BER value element into v, reusing the storage of
// v.Bytes and v.OID; no other field of the value it held survives.
func (v *Value) decode(tag byte, content []byte) error {
	*v = Value{Bytes: v.Bytes[:0], OID: v.OID[:0]}
	switch tag {
	case tagNull:
		v.Type = TypeNull
	case tagInteger:
		n, err := parseInt(content)
		if err != nil {
			return err
		}
		v.Type, v.Int = TypeInteger, n
	case tagOctetString, tagOpaque:
		v.Type = TypeOctetString
		if tag == tagOpaque {
			v.Type = TypeOpaque
		}
		v.Bytes = append(v.Bytes, content...)
	case tagOID:
		o, err := decodeOID(v.OID, content)
		v.OID = o
		if err != nil {
			return err
		}
		v.Type = TypeObjectIdentifier
	case tagIPAddress:
		if len(content) != 4 {
			return fmt.Errorf("%w: IpAddress with %d bytes", ErrBadValue, len(content))
		}
		v.Type, v.IP = TypeIPAddress, netip.AddrFrom4([4]byte(content))
	case tagCounter32, tagGauge32, tagTimeTicks, tagCounter64:
		n, err := parseUint(content)
		if err != nil {
			return err
		}
		if tag != tagCounter64 && n > math.MaxUint32 {
			return fmt.Errorf("%w: 32-bit value overflow", ErrBadValue)
		}
		v.Uint = n
		switch tag {
		case tagCounter32:
			v.Type = TypeCounter32
		case tagGauge32:
			v.Type = TypeGauge32
		case tagTimeTicks:
			v.Type = TypeTimeTicks
		default:
			v.Type = TypeCounter64
		}
	case tagNoSuchObject:
		v.Type = TypeNoSuchObject
	case tagNoSuchInst:
		v.Type = TypeNoSuchInstance
	case tagEndOfMibView:
		v.Type = TypeEndOfMibView
	default:
		return fmt.Errorf("%w: tag 0x%02X", ErrBadValue, tag)
	}
	return nil
}
