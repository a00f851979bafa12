package message

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Data messages containing information such as images are of high
// volume and must be carried in several packets.  The Enveloper breaks
// a frame into fragments that fit a transport MTU; Reassembler
// collects fragments (tolerating duplication and reordering) and
// reports completion.  Each fragment body is prefixed with a small
// header identifying the parent message and the fragment's position.

// Fragment header layout (big-endian), prepended to each chunk:
//
//	msgID uint64 | index uint16 | count uint16 | chunkLen uint32
const fragHeaderLen = 8 + 2 + 2 + 4

// Fragmentation errors.
var (
	ErrFragMTU      = errors.New("message: MTU too small for fragment header")
	ErrFragHeader   = errors.New("message: malformed fragment header")
	ErrFragMismatch = errors.New("message: fragment inconsistent with siblings")
	ErrFragTooMany  = errors.New("message: payload needs too many fragments")
)

// MaxFragments bounds the fragment count representable in the header.
const MaxFragments = 1<<16 - 1

// Fragment is one piece of a fragmented payload.
type Fragment struct {
	MsgID uint64
	Index uint16
	Count uint16
	Chunk []byte
}

// AppendMarshal encodes the fragment, appending to dst and returning
// the extended slice.  The envelope path marshals straight into each
// outbound datagram, carved from the message's one buffer.
func (f *Fragment) AppendMarshal(dst []byte) []byte {
	var hdr [fragHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:], f.MsgID)
	binary.BigEndian.PutUint16(hdr[8:], f.Index)
	binary.BigEndian.PutUint16(hdr[10:], f.Count)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(f.Chunk)))
	dst = append(dst, hdr[:]...)
	return append(dst, f.Chunk...)
}

// parseFragment decodes a fragment frame in place: the chunk is the
// frame's own bytes.  The receive path hands it straight to
// Reassembler.Add, which keeps it as it is.
func parseFragment(frame []byte) (Fragment, error) {
	if len(frame) < fragHeaderLen {
		return Fragment{}, ErrFragHeader
	}
	f := Fragment{
		MsgID: binary.BigEndian.Uint64(frame),
		Index: binary.BigEndian.Uint16(frame[8:]),
		Count: binary.BigEndian.Uint16(frame[10:]),
		Chunk: frame[fragHeaderLen:],
	}
	chunkLen := binary.BigEndian.Uint32(frame[12:])
	if int(chunkLen) != len(f.Chunk) {
		return Fragment{}, fmt.Errorf("%w: chunk length %d vs frame %d",
			ErrFragHeader, chunkLen, len(f.Chunk))
	}
	if f.Count == 0 || f.Index >= f.Count {
		return Fragment{}, fmt.Errorf("%w: index %d of %d", ErrFragHeader, f.Index, f.Count)
	}
	return f, nil
}

// Reassembler collects fragments for any number of concurrent messages
// and yields complete payloads.  It is safe for concurrent use.
type Reassembler struct {
	mu      sync.Mutex
	pending map[uint64]pendingMsg
	// free holds the chunk lists of completed and evicted messages,
	// cleared, for the next messages to start in.
	free [][]fragChunk
}

// pendingMsg is one message's fragments so far, in index order: its
// only allocation is the chunks slice, and that grows with the
// fragments that arrived, not with the count a datagram claims.
type pendingMsg struct {
	count  uint16
	chunks []fragChunk
}

// fragChunk is one received fragment; data aliases its datagram.
type fragChunk struct {
	index uint16
	data  []byte
}

// pendingChunks is the capacity a new message's chunk list starts with
// at most, and the largest a list may have to be kept for reuse.
const pendingChunks = 16

// freeLists bounds the chunk lists a reassembler keeps for reuse.
const freeLists = 8

// maxPending bounds the distinct in-flight messages a reassembler holds;
// a new message past it evicts the least complete.
const maxPending = 64

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64]pendingMsg)}
}

// Add ingests a fragment and retains f.Chunk itself until its message
// completes or is discarded: the chunk must not be written again (a
// received datagram never is).  When the fragment completes its
// message the chunks are concatenated — the one copy a fragmented byte
// gets — and returned with done=true, and the message's state is
// released.  Duplicate fragments are ignored.
//
// With a nil buf the payload is a fresh buffer of exactly its size, the
// caller's for good: a receiver that keeps what it decodes (a viewer's
// chunks, an order buffer's bodies) may keep the payload itself.  With
// a non-nil buf the payload is concatenated into the caller's scratch,
// *buf, and *buf is left holding it, grown to the payload's size when
// it was smaller: a receive loop that is done with each frame before it
// reads the next reassembles every frame in one buffer, and the payload
// is valid until the next Add on buf.
func (r *Reassembler) Add(f Fragment, buf *[]byte) (payload []byte, done bool, err error) {
	if f.Count == 0 || f.Index >= f.Count {
		return nil, false, fmt.Errorf("%w: index %d of %d", ErrFragHeader, f.Index, f.Count)
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	pm, ok := r.pending[f.MsgID]
	if !ok {
		if len(r.pending) >= maxPending {
			r.evictLocked()
		}
		pm = pendingMsg{count: f.Count}
		if k := len(r.free); k > 0 {
			pm.chunks, r.free = r.free[k-1], r.free[:k-1]
		} else {
			pm.chunks = make([]fragChunk, 0, min(int(f.Count), pendingChunks))
		}
	} else if pm.count != f.Count {
		return nil, false, fmt.Errorf("%w: count %d vs %d for msg %d",
			ErrFragMismatch, f.Count, pm.count, f.MsgID)
	}
	i, dup := slices.BinarySearchFunc(pm.chunks, f.Index, func(c fragChunk, idx uint16) int {
		return cmp.Compare(c.index, idx)
	})
	if dup {
		return nil, false, nil
	}
	pm.chunks = slices.Insert(pm.chunks, i, fragChunk{f.Index, f.Chunk})
	if len(pm.chunks) < int(pm.count) {
		r.pending[f.MsgID] = pm
		return nil, false, nil
	}

	total := 0
	for _, c := range pm.chunks {
		total += len(c.data)
	}
	var out []byte
	if buf != nil && cap(*buf) >= total {
		out = (*buf)[:0]
	} else {
		out = make([]byte, 0, total)
	}
	for _, c := range pm.chunks {
		out = append(out, c.data...)
	}
	if buf != nil {
		*buf = out
	}
	delete(r.pending, f.MsgID)
	r.recycleLocked(pm.chunks)
	return out, true, nil
}

// recycleLocked keeps a released message's chunk list for reuse,
// cleared so that it pins no datagram.
func (r *Reassembler) recycleLocked(chunks []fragChunk) {
	if cap(chunks) <= pendingChunks && len(r.free) < freeLists {
		clear(chunks)
		r.free = append(r.free, chunks[:0])
	}
}

// evictLocked drops the least-complete pending message to bound memory
// under loss (fragments of abandoned messages would otherwise pin
// buffers forever).  Ties break on smaller msgID (older senders' IDs
// are typically smaller).  Completeness is compared by cross-multiplying
// held/count, so the one pass picks exactly the victim a sort by the
// fraction would.
func (r *Reassembler) evictLocked() {
	var victim uint64
	var vm pendingMsg
	found := false
	for id, pm := range r.pending {
		a, b := len(pm.chunks)*int(vm.count), len(vm.chunks)*int(pm.count)
		if !found || a < b || (a == b && id < victim) {
			victim, vm, found = id, pm, true
		}
	}
	if found {
		delete(r.pending, victim)
		r.recycleLocked(vm.chunks)
	}
}
