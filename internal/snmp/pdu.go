package snmp

import (
	"errors"
	"fmt"
	"math"
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

// EncodeMessage serializes the message in BER.
func EncodeMessage(m *Message) ([]byte, error) {
	if m.Version != V1 && m.Version != V2c {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, m.Version)
	}

	// Varbind list.
	var vbl []byte
	for _, vb := range m.PDU.VarBinds {
		oidContent, err := encodeOID(vb.OID)
		if err != nil {
			return nil, fmt.Errorf("snmp: varbind %s: %w", vb.OID, err)
		}
		var one []byte
		one = appendTLV(one, tagOID, oidContent)
		one, err = appendValue(one, vb.Value)
		if err != nil {
			return nil, fmt.Errorf("snmp: varbind %s: %w", vb.OID, err)
		}
		vbl = appendTLV(vbl, tagSequence, one)
	}

	// PDU body.
	var body []byte
	body = appendInt(body, tagInteger, int64(m.PDU.RequestID))
	body = appendInt(body, tagInteger, int64(m.PDU.ErrorStatus))
	body = appendInt(body, tagInteger, int64(m.PDU.ErrorIndex))
	body = appendTLV(body, tagSequence, vbl)

	// Message wrapper.
	var inner []byte
	inner = appendInt(inner, tagInteger, int64(m.Version))
	inner = appendTLV(inner, tagOctetString, []byte(m.Community))
	inner = appendTLV(inner, byte(m.PDU.Type), body)

	return appendTLV(nil, tagSequence, inner), nil
}

// DecodeMessage parses a BER frame into a Message.
func DecodeMessage(frame []byte) (*Message, error) {
	top := berReader{buf: frame}
	inner, err := top.expect(tagSequence)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if !top.done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}

	r := berReader{buf: inner}
	verContent, err := r.expect(tagInteger)
	if err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrBadMessage, err)
	}
	ver, err := parseInt(verContent)
	if err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrBadMessage, err)
	}
	if Version(ver) != V1 && Version(ver) != V2c {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	community, err := r.expect(tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("%w: community: %v", ErrBadMessage, err)
	}
	pduTag, pduBody, err := r.readTLV()
	if err != nil {
		return nil, fmt.Errorf("%w: PDU: %v", ErrBadMessage, err)
	}
	if !r.done() {
		return nil, fmt.Errorf("%w: trailing bytes after PDU", ErrBadMessage)
	}
	switch PDUType(pduTag) {
	case GetRequest, GetNextRequest, GetResponse, SetRequest, GetBulkRequest, InformRequest, TrapV2:
	default:
		return nil, fmt.Errorf("%w: PDU tag 0x%02X", ErrBadMessage, pduTag)
	}

	m := &Message{Version: Version(ver), Community: string(community)}
	m.PDU.Type = PDUType(pduTag)

	pr := berReader{buf: pduBody}
	reqContent, err := pr.expect(tagInteger)
	if err != nil {
		return nil, fmt.Errorf("%w: request-id: %v", ErrBadMessage, err)
	}
	reqID, err := parseInt(reqContent)
	if err != nil {
		return nil, fmt.Errorf("%w: request-id: %v", ErrBadMessage, err)
	}
	if reqID < math.MinInt32 || reqID > math.MaxInt32 { // RFC 3416's range; wider would wrap
		return nil, fmt.Errorf("%w: request-id %d out of range", ErrBadMessage, reqID)
	}
	m.PDU.RequestID = int32(reqID)

	esContent, err := pr.expect(tagInteger)
	if err != nil {
		return nil, fmt.Errorf("%w: error-status: %v", ErrBadMessage, err)
	}
	es, err := parseInt(esContent)
	if err != nil {
		return nil, fmt.Errorf("%w: error-status: %v", ErrBadMessage, err)
	}
	m.PDU.ErrorStatus = ErrorStatus(es)

	eiContent, err := pr.expect(tagInteger)
	if err != nil {
		return nil, fmt.Errorf("%w: error-index: %v", ErrBadMessage, err)
	}
	ei, err := parseInt(eiContent)
	if err != nil {
		return nil, fmt.Errorf("%w: error-index: %v", ErrBadMessage, err)
	}
	m.PDU.ErrorIndex = int(ei)

	vblContent, err := pr.expect(tagSequence)
	if err != nil {
		return nil, fmt.Errorf("%w: varbind list: %v", ErrBadMessage, err)
	}
	if !pr.done() {
		return nil, fmt.Errorf("%w: trailing bytes in PDU", ErrBadMessage)
	}

	vr := berReader{buf: vblContent}
	for !vr.done() {
		vbContent, err := vr.expect(tagSequence)
		if err != nil {
			return nil, fmt.Errorf("%w: varbind: %v", ErrBadMessage, err)
		}
		one := berReader{buf: vbContent}
		oidContent, err := one.expect(tagOID)
		if err != nil {
			return nil, fmt.Errorf("%w: varbind OID: %v", ErrBadMessage, err)
		}
		oid, err := decodeOID(oidContent)
		if err != nil {
			return nil, fmt.Errorf("%w: varbind OID: %v", ErrBadMessage, err)
		}
		vTag, vContent, err := one.readTLV()
		if err != nil {
			return nil, fmt.Errorf("%w: varbind value: %v", ErrBadMessage, err)
		}
		val, err := parseValue(vTag, vContent)
		if err != nil {
			return nil, fmt.Errorf("%w: varbind value: %v", ErrBadMessage, err)
		}
		if !one.done() {
			return nil, fmt.Errorf("%w: trailing bytes in varbind", ErrBadMessage)
		}
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: oid, Value: val})
	}
	return m, nil
}
