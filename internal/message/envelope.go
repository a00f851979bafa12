package message

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// Frame envelope: everything the framework puts on the wire is either
// a whole message frame or one fragment of a large one.  A one-byte
// discriminator keeps small messages (the vast majority) at almost
// zero overhead while letting large media events cross transports with
// datagram limits.
//
// The traced variants carry the flight recorder's wire extension — a
// length-prefixed blob of hop records (DESIGN.md §11) — between the
// tag and the payload.  The payload bytes are identical to the
// untraced form, so frames encoded before the extension existed decode
// unchanged, and a receiver with tracing disabled skips the blob
// without parsing it.
const (
	envWhole          = 0x00
	envFragment       = 0x01
	envWholeTraced    = 0x02
	envFragmentTraced = 0x03
)

// traceLenBytes is the u16 length prefix delimiting the trace blob in
// the traced envelope forms.
const traceLenBytes = 2

// Enveloper wraps outbound frames, fragmenting those that exceed the
// MTU.  It is safe for concurrent use.
type Enveloper struct {
	// MTU bounds each wire datagram (envelope byte included);
	// 0 means 8 KiB.
	MTU int
	// Node names this envelope endpoint in flight-recorder hop records
	// (a client's substrate ID, a base station's ID).  When set and the
	// recorder is on, WrapMessage appends a fragment-stage hop and
	// attaches the trace extension to outbound datagrams.
	Node   string
	nextID atomic.Uint64
}

func (e *Enveloper) mtu() int {
	if e.MTU <= 0 {
		return 8 << 10
	}
	return e.MTU
}

// appendWrap envelopes one encoded message frame, appending its wire
// datagrams to dst: one whole datagram when it fits the MTU, else one
// per fragment, every fragment datagram carved from one exact-size
// buffer and capped where its bytes end, so an append to one cannot run
// into the next.  A non-empty blob is the flight recorder's trace
// extension and selects the traced tags.  The frame's bytes are copied
// in, so the caller may reuse frame's backing array immediately (see
// AppendWrapMessage).
func (e *Enveloper) appendWrap(dst [][]byte, frame, blob []byte) ([][]byte, error) {
	whole, fragment, overhead := byte(envWhole), byte(envFragment), 1
	if len(blob) > 0 {
		whole, fragment, overhead = envWholeTraced, envFragmentTraced, 1+traceLenBytes+len(blob)
	}
	room := e.mtu() - overhead
	if len(frame) <= room {
		out := appendHead(make([]byte, 0, overhead+len(frame)), whole, blob)
		return append(dst, append(out, frame...)), nil
	}
	id := e.nextID.Add(1)
	chunk := room - fragHeaderLen
	if chunk <= 0 {
		return dst, fmt.Errorf("message: envelope: %w: mtu %d", ErrFragMTU, room)
	}
	n := (len(frame) + chunk - 1) / chunk // the frame did not fit, so n >= 1
	if n > MaxFragments {
		return dst, fmt.Errorf("message: envelope: %w: %d fragments at mtu %d", ErrFragTooMany, n, room)
	}
	buf := make([]byte, 0, n*(overhead+fragHeaderLen)+len(frame))
	dst = slices.Grow(dst, n)
	for i, lo := 0, 0; i < n; i++ {
		f := Fragment{MsgID: id, Index: uint16(i), Count: uint16(n), Chunk: frame[i*chunk : min((i+1)*chunk, len(frame))]}
		hi := lo + overhead + fragHeaderLen + len(f.Chunk)
		dst = append(dst, f.AppendMarshal(appendHead(buf[lo:lo:hi], fragment, blob)))
		lo = hi
	}
	return dst, nil
}

// appendHead writes a datagram's tag and, on the traced forms, its
// trace extension.
func appendHead(dst []byte, tag byte, blob []byte) []byte {
	dst = append(dst, tag)
	if len(blob) > 0 {
		dst = appendTraceBlob(dst, blob)
	}
	return dst
}

// Encode-buffer pool for the send/relay hot path.  Buffers above
// maxPooledBuf (large media bodies) are not retained so a burst of big
// frames cannot pin memory behind the pool.
const maxPooledBuf = 64 << 10

var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

var (
	ctrEncBufReuse = metrics.C(metrics.CtrEncodeBufReuse)
	ctrEncBufAlloc = metrics.C(metrics.CtrEncodeBufAlloc)
)

// WrapMessage encodes m and wraps the frame into fresh wire datagrams:
// AppendWrapMessage onto nothing.
func (e *Enveloper) WrapMessage(m *Message) ([][]byte, error) { return e.AppendWrapMessage(nil, m) }

// AppendWrapMessage encodes m into a pooled scratch buffer and appends
// the frame's wire datagrams to dst.  Because the datagrams are copies
// of the frame, the scratch buffer is recycled before returning — no
// frame is allocated on the send and relay paths — and a caller that
// sends at once can pass a stack array for dst, so a message costs one
// buffer, its datagram or all its fragment datagrams, and nothing else.
func (e *Enveloper) AppendWrapMessage(dst [][]byte, m *Message) ([][]byte, error) {
	sp := obs.StartStage(obs.MsgID(m.Sender, m.Seq), obs.StageFragment)
	bp := encBufPool.Get().(*[]byte)
	if cap(*bp) > 0 {
		ctrEncBufReuse.Inc()
	} else {
		ctrEncBufAlloc.Inc()
	}
	frame, err := AppendEncode((*bp)[:0], m)
	if err != nil {
		encBufPool.Put(bp)
		if sp.Active() {
			sp.EndErr("encode: " + err.Error())
		}
		return dst, err
	}
	*bp = frame[:0]
	var blob []byte
	if obs.TraceEnabled() {
		id := obs.MsgID(m.Sender, m.Seq)
		if e.Node != "" {
			obs.AppendHop(id, e.Node, obs.StageFragment)
		}
		blob = obs.AppendWireTrace(nil, id)
	}
	dst, err = e.appendWrap(dst, frame, blob)
	if cap(frame) <= maxPooledBuf {
		encBufPool.Put(bp)
	}
	sp.End()
	return dst, err
}

// WrapTraced envelopes an encoded frame, attaching the flight recorder's
// accumulated hop records for trace id as the envelope's trace
// extension.  Fragmented frames carry the extension on every datagram,
// so the trace context survives loss of any subset that repair later
// fills (the merge path deduplicates).  With the recorder off, or no
// hops recorded for id, it degrades to the untraced form.
func (e *Enveloper) WrapTraced(frame []byte, id uint64) ([][]byte, error) {
	return e.appendWrap(nil, frame, obs.AppendWireTrace(nil, id))
}

func appendTraceBlob(dst, blob []byte) []byte {
	dst = append(dst, byte(len(blob)>>8), byte(len(blob)))
	return append(dst, blob...)
}

// splitTraceBlob slices a traced datagram body (everything after the
// tag byte) into its trace blob and payload.
func splitTraceBlob(body []byte) (blob, payload []byte, err error) {
	if len(body) < traceLenBytes {
		return nil, nil, ErrTruncated
	}
	n := int(body[0])<<8 | int(body[1])
	if len(body)-traceLenBytes < n {
		return nil, nil, ErrTruncated
	}
	return body[traceLenBytes : traceLenBytes+n], body[traceLenBytes+n:], nil
}

// WrapWhole envelopes a frame known to fit one datagram (test and
// tooling convenience; Enveloper.AppendWrapMessage is the general path).
func WrapWhole(frame []byte) []byte {
	out := make([]byte, 0, len(frame)+1)
	out = append(out, envWhole)
	return append(out, frame...)
}

// Unwrapper reassembles inbound datagrams into message frames.  Each
// peer needs its own fragment space, so the unwrapper keys reassembly
// state by sender.  It is safe for concurrent use.
type Unwrapper struct {
	// Node names this endpoint in flight-recorder hop records; when
	// set, completing a traced fragmented message appends a
	// fragment-stage hop (reassembly done) at this node.
	Node  string
	mu    sync.Mutex
	peers map[string]*Reassembler
}

// NewUnwrapper returns an empty unwrapper.
func NewUnwrapper() *Unwrapper {
	return &Unwrapper{peers: make(map[string]*Reassembler)}
}

// Read is the receive paths' one entry point: it unwraps a datagram
// from peer and returns the frame it completes with the validated view
// of it.  frame is nil for a fragment whose message is still incomplete
// and for a datagram that cannot be unwrapped or parsed; the latter is
// returned as err and counted in message.decode.errors.  A reassembled
// frame is a fresh buffer, the caller's to keep (see ReadInto).
func (u *Unwrapper) Read(peer string, datagram []byte) (frame []byte, v View, err error) {
	return u.ReadInto(peer, datagram, nil)
}

// ReadInto is Read, reassembling a fragmented frame into the caller's
// scratch as Reassembler.Add does: such a frame, and the view of
// it, are valid only until the next ReadInto on buf.  A whole frame is
// the datagram's own bytes, as Read's is, and leaves *buf alone.
func (u *Unwrapper) ReadInto(peer string, datagram []byte, buf *[]byte) (frame []byte, v View, err error) {
	frame, err = u.UnwrapInto(peer, datagram, buf)
	if err == nil && frame != nil {
		v, err = Parse(frame)
	}
	if err != nil {
		metrics.C(metrics.CtrDecodeErrors).Inc() // only a malformed datagram pays the lookup
		return nil, View{}, err
	}
	return frame, v, nil
}

// Unwrap ingests one datagram from a peer.  It returns the completed
// message frame when one is available (a whole frame immediately, a
// fragmented one when its last piece arrives), or nil.
//
// Traced datagrams (tags 0x02/0x03) have their trace extension merged
// into the flight recorder when it is enabled, and skipped unparsed
// when it is not; either way the payload is handled exactly like the
// untraced form.
func (u *Unwrapper) Unwrap(peer string, datagram []byte) ([]byte, error) {
	return u.UnwrapInto(peer, datagram, nil)
}

// UnwrapInto is Unwrap, reassembling a fragmented frame into *buf as
// Reassembler.Add does; a nil buf is Unwrap.
func (u *Unwrapper) UnwrapInto(peer string, datagram []byte, buf *[]byte) ([]byte, error) {
	if len(datagram) < 1 {
		return nil, ErrTruncated
	}
	tag := datagram[0]
	body := datagram[1:]
	var traceID uint64
	if tag == envWholeTraced || tag == envFragmentTraced {
		blob, payload, err := splitTraceBlob(body)
		if err != nil {
			return nil, err
		}
		if obs.TraceEnabled() {
			traceID, _ = obs.MergeWireTrace(blob)
		}
		body = payload
	}
	switch tag {
	case envWhole, envWholeTraced:
		return body, nil
	case envFragment, envFragmentTraced:
		frag, err := parseFragment(body) // in place: Add keeps the datagram's bytes until completion
		if err != nil {
			return nil, err
		}
		u.mu.Lock()
		r, ok := u.peers[peer]
		if !ok {
			r = NewReassembler()
			u.peers[peer] = r
		}
		u.mu.Unlock()
		frame, done, err := r.Add(frag, buf)
		if err != nil || !done {
			return nil, err
		}
		if done && traceID != 0 && u.Node != "" {
			// Reassembly completed on a traced datagram: record the hop.
			obs.AppendHop(traceID, u.Node, obs.StageFragment)
		}
		return frame, nil
	default:
		return nil, fmt.Errorf("%w: envelope tag 0x%02X", ErrTruncated, tag)
	}
}
