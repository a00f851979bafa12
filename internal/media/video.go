package media

import (
	"encoding/binary"
	"fmt"

	"adaptiveqos/internal/wavelet"
)

// FormatVideoSeq is the simulated video container: an intra-coded
// sequence of embedded wavelet frames (an MJPEG-style stand-in for
// the MPEG2 streams of the paper's Figure 3).  Each frame is
// independently prefix-decodable, so both frame-rate gradation
// (dropping frames) and per-frame quality gradation compose.
const FormatVideoSeq = "ezw-seq"

// Video container layout:
//
//	magic "VID1" | width u16 | height u16 | fps u8 | frames u16 |
//	frames × { length u32 | embedded stream }
const videoMagic = "VID1"

// VideoInfo describes a video object's container header.
type VideoInfo struct {
	Width, Height int
	FPS           int
	Frames        int
}

// VideoInfoOf parses a video object's header.
func VideoInfoOf(o *Object) (VideoInfo, error) {
	if o.Kind != KindVideo || o.Format != FormatVideoSeq {
		return VideoInfo{}, fmt.Errorf("%w: %s", ErrBadInput, o)
	}
	if len(o.Data) < 11 || string(o.Data[:4]) != videoMagic {
		return VideoInfo{}, fmt.Errorf("%w: bad video container", ErrBadInput)
	}
	return VideoInfo{
		Width:  int(binary.BigEndian.Uint16(o.Data[4:])),
		Height: int(binary.BigEndian.Uint16(o.Data[6:])),
		FPS:    int(o.Data[8]),
		Frames: int(binary.BigEndian.Uint16(o.Data[9:])),
	}, nil
}

// videoFrameStream returns frame i's embedded stream bytes.
func videoFrameStream(o *Object, i int) ([]byte, error) {
	info, err := VideoInfoOf(o)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= info.Frames {
		return nil, fmt.Errorf("%w: frame %d of %d", ErrBadInput, i, info.Frames)
	}
	off := 11
	for f := 0; f <= i; f++ {
		if len(o.Data) < off+4 {
			return nil, fmt.Errorf("%w: truncated video container", ErrBadInput)
		}
		n := int(binary.BigEndian.Uint32(o.Data[off:]))
		off += 4
		if len(o.Data) < off+n {
			return nil, fmt.Errorf("%w: truncated frame %d", ErrBadInput, f)
		}
		if f == i {
			return o.Data[off : off+n], nil
		}
		off += n
	}
	return nil, fmt.Errorf("%w: frame walk", ErrBadInput)
}

// DecodeVideoFrame reconstructs frame i of a video object.
func DecodeVideoFrame(o *Object, i int) (*wavelet.DecodeResult, error) {
	stream, err := videoFrameStream(o, i)
	if err != nil {
		return nil, err
	}
	return wavelet.Decode(stream)
}

// VideoToImage extracts the keyframe (first frame) of a video as a
// progressive image object — the entry point for the video → image →
// sketch → text degradation chain.
type VideoToImage struct{}

// Name implements Transformer.
func (VideoToImage) Name() string { return "video-to-image" }

// From implements Transformer.
func (VideoToImage) From() Kind { return KindVideo }

// To implements Transformer.
func (VideoToImage) To() Kind { return KindImage }

// Transform implements Transformer.
func (VideoToImage) Transform(in *Object) (*Object, error) {
	res, err := DecodeVideoFrame(in, 0)
	if err != nil {
		return nil, err
	}
	return EncodeImage(res.Image, in.Description)
}
