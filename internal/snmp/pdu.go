package snmp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Version selects the SNMP protocol version.
type Version int

// Supported versions.
const (
	V1  Version = 0
	V2c Version = 1
)

// String names the version.
func (v Version) String() string {
	switch v {
	case V1:
		return "SNMPv1"
	case V2c:
		return "SNMPv2c"
	default:
		return fmt.Sprintf("version(%d)", int(v))
	}
}

// PDUType identifies the operation a PDU requests or reports.
type PDUType byte

// PDU types.
const (
	GetRequest     PDUType = tagGetRequest
	GetNextRequest PDUType = tagGetNext
	GetResponse    PDUType = tagGetResponse
	SetRequest     PDUType = tagSetRequest
	GetBulkRequest PDUType = tagGetBulk
	InformRequest  PDUType = tagInform
	TrapV2         PDUType = tagTrapV2
)

// String names the PDU type.
func (t PDUType) String() string {
	switch t {
	case GetRequest:
		return "GET"
	case GetNextRequest:
		return "GETNEXT"
	case GetResponse:
		return "RESPONSE"
	case SetRequest:
		return "SET"
	case GetBulkRequest:
		return "GETBULK"
	case InformRequest:
		return "INFORM"
	case TrapV2:
		return "TRAP"
	default:
		return fmt.Sprintf("PDU(0x%02X)", byte(t))
	}
}

// ErrorStatus is the PDU-level error status field.
type ErrorStatus int

// RFC 1157 / RFC 3416 error statuses (subset relevant to v1/v2c).
const (
	NoError     ErrorStatus = 0
	TooBig      ErrorStatus = 1
	NoSuchName  ErrorStatus = 2
	BadValue    ErrorStatus = 3
	ReadOnly    ErrorStatus = 4
	GenErr      ErrorStatus = 5
	NotWritable ErrorStatus = 17
)

// String names the error status.
func (e ErrorStatus) String() string {
	switch e {
	case NoError:
		return "noError"
	case TooBig:
		return "tooBig"
	case NoSuchName:
		return "noSuchName"
	case BadValue:
		return "badValue"
	case ReadOnly:
		return "readOnly"
	case GenErr:
		return "genErr"
	case NotWritable:
		return "notWritable"
	default:
		return fmt.Sprintf("errorStatus(%d)", int(e))
	}
}

// VarBind pairs an OID with a value.
type VarBind struct {
	OID   OID
	Value Value
}

// PDU is the protocol data unit shared by all v1/v2c operations.  For
// GetBulkRequest, ErrorStatus carries non-repeaters and ErrorIndex
// carries max-repetitions, per RFC 3416.
type PDU struct {
	Type        PDUType
	RequestID   int32
	ErrorStatus ErrorStatus
	ErrorIndex  int
	VarBinds    []VarBind
}

// NonRepeaters is the GETBULK alias for the error-status field.
func (p *PDU) NonRepeaters() int { return int(p.ErrorStatus) }

// MaxRepetitions is the GETBULK alias for the error-index field.
func (p *PDU) MaxRepetitions() int { return p.ErrorIndex }

// Message is a complete community-based SNMP message.
type Message struct {
	Version   Version
	Community string
	PDU       PDU
}

// Message errors.
var (
	ErrBadMessage = errors.New("snmp: malformed message")
	ErrBadVersion = errors.New("snmp: unsupported version")
)

// AppendMessage appends the message's BER encoding to dst in one pass:
// every element is sized before it is written, so nothing is built
// apart and dst, when it has room, is the only buffer touched.  On
// error dst is returned unchanged.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if m.Version != V1 && m.Version != V2c {
		return dst, fmt.Errorf("%w: %d", ErrBadVersion, m.Version)
	}
	vbl := 0
	for _, vb := range m.PDU.VarBinds {
		n, err := varBindLen(vb)
		if err != nil {
			return dst, fmt.Errorf("snmp: varbind %s: %w", vb.OID, err)
		}
		vbl += tlvLen(n)
	}
	pdu := tlvLen(intLen(int64(m.PDU.RequestID))) + tlvLen(intLen(int64(m.PDU.ErrorStatus))) +
		tlvLen(intLen(int64(m.PDU.ErrorIndex))) + tlvLen(vbl)
	inner := tlvLen(intLen(int64(m.Version))) + tlvLen(len(m.Community)) + tlvLen(pdu)

	dst = slices.Grow(dst, tlvLen(inner))
	dst = appendHeader(dst, tagSequence, inner)
	dst = appendInt(dst, tagInteger, int64(m.Version))
	dst = append(appendHeader(dst, tagOctetString, len(m.Community)), m.Community...)
	dst = appendHeader(dst, byte(m.PDU.Type), pdu)
	dst = appendInt(dst, tagInteger, int64(m.PDU.RequestID))
	dst = appendInt(dst, tagInteger, int64(m.PDU.ErrorStatus))
	dst = appendInt(dst, tagInteger, int64(m.PDU.ErrorIndex))
	dst = appendHeader(dst, tagSequence, vbl)
	for _, vb := range m.PDU.VarBinds {
		n, _ := varBindLen(vb)
		oid, _ := oidLen(vb.OID)
		dst = appendHeader(dst, tagSequence, n)
		dst, _ = appendOID(appendHeader(dst, tagOID, oid), vb.OID)
		dst = appendValue(dst, vb.Value)
	}
	return dst, nil
}

// varBindLen is the length of a varbind's content: its OID element and
// its value element.
func varBindLen(vb VarBind) (int, error) {
	oid, err := oidLen(vb.OID)
	if err != nil {
		return 0, err
	}
	val, err := valueLen(vb.Value)
	if err != nil {
		return 0, err
	}
	return tlvLen(oid) + tlvLen(val), nil
}

// Decode parses a BER frame into m, reusing its storage: the varbind
// slice, each varbind's OID and each value's bytes and OID are written
// in place, and the community string is kept when it is unchanged.
// Nothing of what m held before survives; after an error m is empty.
// m aliases nothing of frame.
func (m *Message) Decode(frame []byte) error {
	if err := m.decode(frame); err != nil {
		m.Version, m.Community = 0, ""
		m.PDU = PDU{VarBinds: m.PDU.VarBinds[:0]}
		return err
	}
	return nil
}

func (m *Message) decode(frame []byte) error {
	m.PDU.VarBinds = m.PDU.VarBinds[:0]
	top := berReader{buf: frame}
	inner, err := top.expect(tagSequence)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if !top.done() {
		return fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}

	r := berReader{buf: inner}
	verContent, err := r.expect(tagInteger)
	if err != nil {
		return fmt.Errorf("%w: version: %v", ErrBadMessage, err)
	}
	ver, err := parseInt(verContent)
	if err != nil {
		return fmt.Errorf("%w: version: %v", ErrBadMessage, err)
	}
	if Version(ver) != V1 && Version(ver) != V2c {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	community, err := r.expect(tagOctetString)
	if err != nil {
		return fmt.Errorf("%w: community: %v", ErrBadMessage, err)
	}
	pduTag, pduBody, err := r.readTLV()
	if err != nil {
		return fmt.Errorf("%w: PDU: %v", ErrBadMessage, err)
	}
	if !r.done() {
		return fmt.Errorf("%w: trailing bytes after PDU", ErrBadMessage)
	}
	switch PDUType(pduTag) {
	case GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest, InformRequest, TrapV2:
	default:
		return fmt.Errorf("%w: PDU tag 0x%02X", ErrBadMessage, pduTag)
	}

	m.Version = Version(ver)
	if m.Community != string(community) {
		m.Community = string(community)
	}
	m.PDU.Type = PDUType(pduTag)

	pr := berReader{buf: pduBody}
	reqContent, err := pr.expect(tagInteger)
	if err != nil {
		return fmt.Errorf("%w: request-id: %v", ErrBadMessage, err)
	}
	reqID, err := parseInt(reqContent)
	if err != nil {
		return fmt.Errorf("%w: request-id: %v", ErrBadMessage, err)
	}
	if reqID < math.MinInt32 || reqID > math.MaxInt32 { // RFC 3416's range; wider would wrap
		return fmt.Errorf("%w: request-id %d out of range", ErrBadMessage, reqID)
	}
	m.PDU.RequestID = int32(reqID)

	esContent, err := pr.expect(tagInteger)
	if err != nil {
		return fmt.Errorf("%w: error-status: %v", ErrBadMessage, err)
	}
	es, err := parseInt(esContent)
	if err != nil {
		return fmt.Errorf("%w: error-status: %v", ErrBadMessage, err)
	}
	m.PDU.ErrorStatus = ErrorStatus(es)

	eiContent, err := pr.expect(tagInteger)
	if err != nil {
		return fmt.Errorf("%w: error-index: %v", ErrBadMessage, err)
	}
	ei, err := parseInt(eiContent)
	if err != nil {
		return fmt.Errorf("%w: error-index: %v", ErrBadMessage, err)
	}
	m.PDU.ErrorIndex = int(ei)

	vblContent, err := pr.expect(tagSequence)
	if err != nil {
		return fmt.Errorf("%w: varbind list: %v", ErrBadMessage, err)
	}
	if !pr.done() {
		return fmt.Errorf("%w: trailing bytes in PDU", ErrBadMessage)
	}

	vr := berReader{buf: vblContent}
	for !vr.done() {
		vbContent, err := vr.expect(tagSequence)
		if err != nil {
			return fmt.Errorf("%w: varbind: %v", ErrBadMessage, err)
		}
		one := berReader{buf: vbContent}
		oidContent, err := one.expect(tagOID)
		if err != nil {
			return fmt.Errorf("%w: varbind OID: %v", ErrBadMessage, err)
		}
		vb := m.nextVarBind()
		if vb.OID, err = decodeOID(vb.OID, oidContent); err != nil {
			return fmt.Errorf("%w: varbind OID: %v", ErrBadMessage, err)
		}
		vTag, vContent, err := one.readTLV()
		if err != nil {
			return fmt.Errorf("%w: varbind value: %v", ErrBadMessage, err)
		}
		if err := vb.Value.decode(vTag, vContent); err != nil {
			return fmt.Errorf("%w: varbind value: %v", ErrBadMessage, err)
		}
		if !one.done() {
			return fmt.Errorf("%w: trailing bytes in varbind", ErrBadMessage)
		}
	}
	return nil
}

// nextVarBind extends m's varbind list by one, reusing the slot (and
// the storage its OID and value hold) a longer list left in capacity.
func (m *Message) nextVarBind() *VarBind {
	vbs := m.PDU.VarBinds
	if len(vbs) < cap(vbs) {
		vbs = vbs[:len(vbs)+1]
	} else {
		vbs = append(vbs, VarBind{})
	}
	m.PDU.VarBinds = vbs
	return &vbs[len(vbs)-1]
}
