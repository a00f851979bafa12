package apps

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/wavelet"
)

// ImageViewer is the shared progressive-image application whose
// behaviour the paper's first two experiments measure.  A share is
// announced with metadata, then its embedded stream arrives as a fixed
// number of packets.  The viewer accepts packets only up to the budget
// the inference engine set for the current system state; the accepted
// prefix decodes to an image whose bits-per-pixel and compression
// ratio are the Fig 6/Fig 7 quantities.
//
// It is a client's one collector of a share (the base station collects
// nothing: it forwards each packet as it passes): the substrate orders
// nothing across messages, so chunks that overtake their announce are
// parked here until it lands, and a sender that cut its share short
// says so with the RTP marker on the last chunk it sent, which ends the
// share there.

// ImageViewer errors.
var (
	ErrUnknownImage = errors.New("apps: unknown shared image")
	ErrBadPacket    = errors.New("apps: image packet out of range")
)

// ImageMeta announces a shared image.
type ImageMeta struct {
	// Object is the shared-object identifier.
	Object string
	// Width, Height are the raster dimensions.
	Width, Height int
	// TotalPackets is how many packets carry the embedded stream.
	TotalPackets int
	// StreamBytes is the full embedded stream length.
	StreamBytes int
	// Description is the verbal tag.
	Description string
	// Sketch is the image's marshaled robust sketch (media.Object's);
	// "" when the share carries none.
	Sketch string
}

// EncodeImageMeta builds the announce event payload:
//
//	width u16 | height u16 | packets u16 | streamBytes u32 |
//	objLen u16 | object | descLen u16 | desc [| sketchLen u16 | sketch]
//
// The sketch trailer is there only when the share carries a sketch, so
// an announce without one reads as it did before sketches travelled.
func EncodeImageMeta(m ImageMeta) []byte {
	out := binary.BigEndian.AppendUint16(nil, uint16(m.Width))
	out = binary.BigEndian.AppendUint16(out, uint16(m.Height))
	out = binary.BigEndian.AppendUint16(out, uint16(m.TotalPackets))
	out = binary.BigEndian.AppendUint32(out, uint32(m.StreamBytes))
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Object)))
	out = append(out, m.Object...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Description)))
	out = append(out, m.Description...)
	return appendSketch(out, m.Sketch)
}

// appendSketch appends the optional sketch trailer of an announce or a
// media object.
func appendSketch(out []byte, sketch string) []byte {
	if sketch == "" {
		return out
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(sketch)))
	return append(out, sketch...)
}

// sketchTrailer checks what follows a payload's last mandatory field:
// nothing, or a sketch trailer holding a non-empty sketch and ending
// the payload.  It returns the sketch's length.
func sketchTrailer(rest []byte) (int, bool) {
	if len(rest) == 0 {
		return 0, true
	}
	if len(rest) < 2 {
		return 0, false
	}
	n := int(binary.BigEndian.Uint16(rest))
	return n, n > 0 && len(rest) == 2+n
}

// DecodeImageMeta parses an announce payload.  A size the decoder
// would refuse (wavelet.CheckGeometry) is refused here too: a viewer
// draws a blank canvas of the announced size before any stream arrives.
func DecodeImageMeta(payload []byte) (ImageMeta, error) {
	if len(payload) < 14 {
		return ImageMeta{}, fmt.Errorf("%w: short image meta", ErrBadEvent)
	}
	m := ImageMeta{
		Width:        int(binary.BigEndian.Uint16(payload)),
		Height:       int(binary.BigEndian.Uint16(payload[2:])),
		TotalPackets: int(binary.BigEndian.Uint16(payload[4:])),
		StreamBytes:  int(binary.BigEndian.Uint32(payload[6:])),
	}
	off := 10
	n := int(binary.BigEndian.Uint16(payload[off:]))
	off += 2
	if len(payload) < off+n+2 {
		return ImageMeta{}, fmt.Errorf("%w: image meta object", ErrBadEvent)
	}
	m.Object = string(payload[off : off+n])
	off += n
	d := int(binary.BigEndian.Uint16(payload[off:]))
	off += 2
	if len(payload) < off+d {
		return ImageMeta{}, fmt.Errorf("%w: image meta description", ErrBadEvent)
	}
	n, ok := sketchTrailer(payload[off+d:])
	if !ok {
		return ImageMeta{}, fmt.Errorf("%w: image meta sketch", ErrBadEvent)
	}
	// One string holds the description and the sketch after it.
	rest := string(payload[off:])
	m.Description, m.Sketch = rest[:d], rest[len(rest)-n:]
	if !wavelet.CheckGeometry(m.Width, m.Height) || m.TotalPackets < 1 {
		return ImageMeta{}, fmt.Errorf("%w: image meta values", ErrBadEvent)
	}
	return m, nil
}

// SplitStream slices an embedded stream into n near-equal packets in
// stream order (packet i must precede packet i+1 for prefix decoding).
func SplitStream(stream []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	if n > len(stream) && len(stream) > 0 {
		n = len(stream)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		lo := len(stream) * i / n
		hi := len(stream) * (i + 1) / n
		out = append(out, stream[lo:hi])
	}
	return out
}

// SharePackets is the paper's packetization of a shared image: every
// sender, the base station and the figure experiments split a share
// into 16 prefix-extending packets.
const SharePackets = 16

// ShareImage prepares an image object for sharing: the announce
// metadata, carrying the object's sketch, plus the packetized stream.
// A name, description or sketch too long for the announce's length
// fields is an error, not a share every receiver would reject.
func ShareImage(object string, obj *media.Object, totalPackets int) (ImageMeta, [][]byte, error) {
	if obj.Kind != media.KindImage ||
		(obj.Format != media.FormatEZW && obj.Format != media.FormatEZWColor) {
		return ImageMeta{}, nil, fmt.Errorf("%w: %s", media.ErrBadInput, obj)
	}
	if len(object) > 1<<16-1 || len(obj.Description) > 1<<16-1 || len(obj.Sketch) > 1<<16-1 {
		return ImageMeta{}, nil, fmt.Errorf("%w: image meta fields too long", ErrBadEvent)
	}
	packets := SplitStream(obj.Data, totalPackets)
	meta := ImageMeta{
		Object:       object,
		Width:        obj.Width,
		Height:       obj.Height,
		TotalPackets: len(packets),
		StreamBytes:  len(obj.Data),
		Description:  obj.Description,
		Sketch:       obj.Sketch,
	}
	return meta, packets, nil
}

// ImageStats are the image-viewer parameters the experiments plot.
type ImageStats struct {
	// PacketsReceived counts packets that arrived.
	PacketsReceived int
	// PacketsAccepted counts packets accepted under the budget.
	PacketsAccepted int
	// TotalPackets is the announced packet count.
	TotalPackets int
	// AcceptedBytes is the byte length of the accepted prefix.
	AcceptedBytes int
	// BPP is bits-per-pixel of the accepted representation.
	BPP float64
	// CompressionRatio is raw (8 bpp) size over accepted size; +Inf
	// when nothing was accepted.
	CompressionRatio float64
}

// Parking bounds: how many not-yet-announced objects may hold parked
// chunks, and how many each may hold.  A new object past the first
// bound displaces the longest-waiting one, whose announce was most
// likely lost; a chunk past the second is dropped.  Announce-then-data
// retransmits nothing, so parking is best effort, and unannounced
// traffic cannot pin memory.
const (
	maxParkedObjects   = 32
	maxParkedPerObject = 64
)

// chunk is one packet of a share; marker is its sender's "the stream
// stops here".
type chunk struct {
	idx    int
	data   []byte
	marker bool
}

// parkedObject is the chunks, in arrival order, of an object whose
// announce is still on its way.
type parkedObject struct {
	object string
	chunks []chunk
}

type sharedImage struct {
	meta  ImageMeta // as announced
	total int       // where the share ends: meta.TotalPackets until a marker lowers it
	// received holds the distinct chunks in index order, so the first
	// accepted of them are packets 0…accepted-1.  It starts with room for
	// min(TotalPackets, receivedChunks) and grows with what arrives, not
	// with the count an announce claims.
	received []chunk
	accepted int // contiguous prefix packets accepted
	budget   int
}

// receivedChunks is the capacity a new share's chunk list starts with:
// a share of SharePackets never grows it.
const receivedChunks = SharePackets

// ImageViewer tracks shared images and applies the packet budget.
type ImageViewer struct {
	mu     sync.RWMutex
	images map[string]*sharedImage
	parked []parkedObject // longest waiting first
	budget int            // default budget for new shares; <0 = unlimited
}

// NewImageViewer returns an empty viewer with an unlimited budget.
func NewImageViewer() *ImageViewer {
	return &ImageViewer{
		images: make(map[string]*sharedImage),
		budget: -1,
	}
}

// SetBudget sets the packet budget applied to shares: the number of
// packets the viewer accepts per image (<0 = unlimited).  The budget
// applies to subsequent packets of existing shares as well.
func (v *ImageViewer) SetBudget(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.budget = n
	for _, si := range v.images {
		si.budget = n
	}
}

// Announce registers a shared image and adopts, in arrival order, the
// chunks that overtook the announce; it returns how many of them joined
// the share.  An announce repeating the metadata of a share already held
// is a duplicate delivery and keeps what was collected; other metadata
// starts the share afresh.
func (v *ImageViewer) Announce(meta ImageMeta) (adopted int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	si := v.images[meta.Object]
	if si == nil || si.meta != meta {
		si = &sharedImage{
			meta:     meta,
			total:    meta.TotalPackets,
			received: make([]chunk, 0, min(meta.TotalPackets, receivedChunks)),
			budget:   v.budget,
		}
		v.images[meta.Object] = si
	}
	for _, c := range v.unpark(meta.Object) {
		if si.add(c) == nil {
			adopted++
		}
	}
	return adopted
}

// AddPacket ingests packet idx of a shared image.  Packets beyond the
// budget are counted as received but not accepted; the accepted prefix
// only grows through contiguous, in-budget packets.  The viewer retains
// data itself, not a copy, until the share is forgotten: the caller
// must not write to it afterwards (a received message body never is
// written; the renderers copy out).
func (v *ImageViewer) AddPacket(object string, idx int, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	si, ok := v.images[object]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownImage, object)
	}
	return si.add(chunk{idx: idx, data: data})
}

// AddChunk ingests chunk idx of a share as it came off the wire,
// retaining pkt.Payload as AddPacket retains data.  A chunk of an
// announced share joins it (joined is true; a duplicate is a no-op that
// still joins), and a marker on it ends the share at idx+1.  A chunk
// that overtook its announce is parked, marker and all, within the
// parking bounds and joins when Announce adopts it.
func (v *ImageViewer) AddChunk(object string, idx int, pkt rtp.Packet) (joined bool, err error) {
	c := chunk{idx: idx, data: pkt.Payload, marker: pkt.Marker}
	v.mu.Lock()
	defer v.mu.Unlock()
	si, ok := v.images[object]
	if !ok {
		v.park(object, c)
		return false, nil
	}
	if err := si.add(c); err != nil {
		return false, err
	}
	return true, nil
}

func (v *ImageViewer) park(object string, c chunk) {
	i := v.parkedAt(object)
	if i < 0 {
		if len(v.parked) == maxParkedObjects {
			v.parked = slices.Delete(v.parked, 0, 1) // the longest waiting makes room
		}
		i, v.parked = len(v.parked), append(v.parked, parkedObject{object: object})
	}
	if p := &v.parked[i]; len(p.chunks) < maxParkedPerObject {
		p.chunks = append(p.chunks, c)
	}
}

// unpark removes and returns the chunks parked for object.
func (v *ImageViewer) unpark(object string) (chunks []chunk) {
	if i := v.parkedAt(object); i >= 0 {
		chunks = v.parked[i].chunks
		v.parked = slices.Delete(v.parked, i, i+1)
	}
	return chunks
}

func (v *ImageViewer) parkedAt(object string) int {
	return slices.IndexFunc(v.parked, func(p parkedObject) bool { return p.object == object })
}

func (si *sharedImage) add(c chunk) error {
	if c.idx < 0 || c.idx >= si.total {
		return fmt.Errorf("%w: %d of %d", ErrBadPacket, c.idx, si.total)
	}
	i, dup := slices.BinarySearchFunc(si.received, c.idx, func(r chunk, idx int) int { return cmp.Compare(r.idx, idx) })
	if !dup {
		si.received = slices.Insert(si.received, i, c)
		// Advance the accepted prefix under the budget: the leading run of
		// chunks whose index is their position.
		limit := si.total
		if si.budget >= 0 && si.budget < limit {
			limit = si.budget
		}
		for si.accepted < limit && si.accepted < len(si.received) && si.received[si.accepted].idx == si.accepted {
			si.accepted++
		}
	}
	if c.marker {
		si.endAt(c.idx + 1)
	}
	return nil
}

// endAt lowers the share's packet count to total: the sender's marker
// said the stream stops there (it truncated the share itself), so the
// prefix completes instead of waiting for packets that were never
// sent.  The count is never raised and never cut below what is already
// accepted; packets at or past it are out of range from then on.
func (si *sharedImage) endAt(total int) {
	if total >= si.total || total < si.accepted || total < 1 {
		return
	}
	si.total = total
	si.received = slices.DeleteFunc(si.received, func(c chunk) bool { return c.idx >= total })
}

// Forget drops all state for a shared image (a share its owner has
// done with), its parked chunks included.  Unknown objects are a no-op.
func (v *ImageViewer) Forget(object string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.images, object)
	v.unpark(object)
}

// Objects returns the shared-object IDs known to the viewer.
func (v *ImageViewer) Objects() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.images))
	for id := range v.images {
		out = append(out, id)
	}
	return out
}

// Stats reports the viewer parameters for a shared image.
func (v *ImageViewer) Stats(object string) (ImageStats, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	si, ok := v.images[object]
	if !ok {
		// As is: a miss is an answer callers poll for (a share that has
		// not arrived), so it costs no allocation.
		return ImageStats{}, ErrUnknownImage
	}
	st := ImageStats{
		PacketsReceived: len(si.received),
		PacketsAccepted: si.accepted,
		TotalPackets:    si.total,
	}
	for _, c := range si.received[:si.accepted] {
		st.AcceptedBytes += len(c.data)
	}
	pixels := float64(si.meta.Width * si.meta.Height)
	st.BPP = float64(st.AcceptedBytes*8) / pixels
	if st.AcceptedBytes > 0 {
		st.CompressionRatio = pixels / float64(st.AcceptedBytes)
	} else {
		st.CompressionRatio = math.Inf(1)
	}
	return st, nil
}

func (v *ImageViewer) prefix(object string) ([]byte, ImageMeta, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	si, ok := v.images[object]
	if !ok {
		return nil, ImageMeta{}, fmt.Errorf("%w: %q", ErrUnknownImage, object)
	}
	n := 0
	for _, c := range si.received[:si.accepted] {
		n += len(c.data)
	}
	stream := make([]byte, 0, n)
	for _, c := range si.received[:si.accepted] {
		stream = append(stream, c.data...)
	}
	return stream, si.meta, nil
}

// Render decodes the accepted prefix of a shared image.
func (v *ImageViewer) Render(object string) (*wavelet.DecodeResult, error) {
	stream, meta, err := v.prefix(object)
	if err != nil {
		return nil, err
	}
	info, err := wavelet.Inspect(stream)
	if errors.Is(err, wavelet.ErrStreamHeader) {
		// Nothing (or less than a header) accepted yet: show a blank
		// canvas of the announced size rather than failing the render.
		return &wavelet.DecodeResult{Image: wavelet.NewImage(meta.Width, meta.Height)}, nil
	}
	if err != nil {
		return nil, err
	}
	if !info.Color {
		return wavelet.Decode(stream)
	}
	// Color streams render through the color decoder; the grayscale
	// Render view is the luma plane.
	cres, err := wavelet.DecodeColor(stream)
	if err != nil {
		return nil, err
	}
	luma := cres.Image.Luma()
	luma.Clamp8()
	return &wavelet.DecodeResult{Image: luma, Lossless: cres.Lossless}, nil
}

// RenderColor decodes the accepted prefix of a color share.  With no
// accepted data it returns a blank canvas; with a partial prefix the
// chroma may be missing (a grayscale rendition).
func (v *ImageViewer) RenderColor(object string) (*wavelet.ColorDecodeResult, error) {
	stream, meta, err := v.prefix(object)
	if err != nil {
		return nil, err
	}
	res, err := wavelet.DecodeColor(stream)
	if errors.Is(err, wavelet.ErrColorStream) && len(stream) < 16 {
		return &wavelet.ColorDecodeResult{
			Image: wavelet.NewColorImage(meta.Width, meta.Height),
		}, nil
	}
	return res, err
}
