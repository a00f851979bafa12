package media

import (
	"encoding/binary"
	"fmt"

	"adaptiveqos/internal/wavelet"
)

// FormatEZW is the progressive wavelet stream format produced by
// EncodeImage; prefixes of the stream are decodable.
const FormatEZW = "ezw"

// FormatSketch is the marshaled sketch format.
const FormatSketch = "sketch"

// FormatText is plain UTF-8 text.
const FormatText = "utf8"

// FormatSpeech is the simulated phoneme stream produced by the
// text-to-speech module.
const FormatSpeech = "pcm-sim"

// EncodeImage wraps a raster image as a progressive media object.
func EncodeImage(im *wavelet.Image, description string) (*Object, error) {
	stream, band, err := wavelet.EncodeBand(im, 0, wavelet.Filter53, wavelet.SketchMaxDim)
	if err != nil {
		return nil, err
	}
	return imageObject(FormatEZW, stream, band, im.W, im.H, description)
}

// imageObject wraps a coded stream as an image object carrying the
// sketch of band, the luma LL band the stream decodes to at
// SketchMaxDim.
func imageObject(format string, stream []byte, band *wavelet.Image, w, h int, description string) (*Object, error) {
	sketch, err := SketchFromRaster(band, description)
	if err != nil {
		return nil, err
	}
	return &Object{Kind: KindImage, Format: format, Data: stream, Description: description, Width: w, Height: h, Sketch: sketch}, nil
}

// isProgressiveImage reports whether o holds an embedded wavelet
// stream, gray or colour.
func isProgressiveImage(o *Object) bool {
	return o.Kind == KindImage && (o.Format == FormatEZW || o.Format == FormatEZWColor)
}

// Gradate applies gradual gradation: it truncates a progressive image
// object to at most budget bytes (never below the stream header), the
// fidelity-reducing transformation the inference engine applies when
// resources are constrained.  Non-image objects and non-progressive
// formats pass through unchanged when they already fit, and error
// otherwise (they cannot be gradated).
func Gradate(o *Object, budget int) (*Object, error) {
	if o.Size() <= budget {
		return o.Clone(), nil
	}
	if !isProgressiveImage(o) {
		return nil, fmt.Errorf("%w: cannot gradate %s to %d bytes", ErrBadInput, o, budget)
	}
	if budget < 16 {
		budget = 16 // keep at least the header + a few code bytes
	}
	if budget > len(o.Data) {
		budget = len(o.Data)
	}
	c := o.Clone()
	c.Data = c.Data[:budget]
	return c, nil
}

// ImageToSketch yields the robust sketch layer of a progressive image
// object (≈2000× smaller than the original raster).
type ImageToSketch struct{}

// Name implements Transformer.
func (ImageToSketch) Name() string { return "image-to-sketch" }

// From implements Transformer.
func (ImageToSketch) From() Kind { return KindImage }

// To implements Transformer.
func (ImageToSketch) To() Kind { return KindSketch }

// Transform implements Transformer.  The sketch is the one the object
// carries, drawn from the encoder's LL band when the image was encoded:
// nothing is decoded.  An object without one, or whose sketch fails its
// header check, cannot be sketched.
func (ImageToSketch) Transform(in *Object) (*Object, error) {
	if !isProgressiveImage(in) {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, in)
	}
	data := []byte(in.Sketch)
	w, h, err := wavelet.SketchSize(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s carries no valid sketch", err, in)
	}
	return &Object{Kind: KindSketch, Format: FormatSketch, Data: data, Description: in.Description, Width: w, Height: h}, nil
}

// SketchFromRaster marshals the sketch of a gray raster: the sketch an
// image object carries when its luma LL band at SketchMaxDim is that
// raster.
func SketchFromRaster(gray *wavelet.Image, description string) (string, error) {
	data, err := wavelet.ExtractSketch(gray, description).Marshal()
	return string(data), err
}

// ImageToText reduces an image to its verbal description — the minimal
// modality for text-only clients.
type ImageToText struct{}

// Name implements Transformer.
func (ImageToText) Name() string { return "image-to-text" }

// From implements Transformer.
func (ImageToText) From() Kind { return KindImage }

// To implements Transformer.
func (ImageToText) To() Kind { return KindText }

// Transform implements Transformer.
func (ImageToText) Transform(in *Object) (*Object, error) {
	if in.Kind != KindImage {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, in)
	}
	desc := in.Description
	if desc == "" {
		desc = fmt.Sprintf("[image %dx%d, no description]", in.Width, in.Height)
	}
	return &Object{Kind: KindText, Format: FormatText, Data: []byte(desc), Description: desc}, nil
}

// SketchToText reduces a sketch to its verbal description.
type SketchToText struct{}

// Name implements Transformer.
func (SketchToText) Name() string { return "sketch-to-text" }

// From implements Transformer.
func (SketchToText) From() Kind { return KindSketch }

// To implements Transformer.
func (SketchToText) To() Kind { return KindText }

// Transform implements Transformer.
func (SketchToText) Transform(in *Object) (*Object, error) {
	if in.Kind != KindSketch {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, in)
	}
	sk, err := wavelet.UnmarshalSketch(in.Data)
	if err != nil {
		return nil, err
	}
	desc := sk.Description
	if desc == "" {
		desc = fmt.Sprintf("[sketch %dx%d, %d edge points]", sk.W, sk.H, sk.EdgeCount())
	}
	return &Object{Kind: KindText, Format: FormatText, Data: []byte(desc), Description: desc}, nil
}

// TextToSpeech synthesizes a simulated speech stream.  The paper's
// implementation called external modality-transformation services; the
// reproduction produces a deterministic phoneme-rate stream whose size
// models real synthesized audio (~16 bytes per input character at the
// simulated codec rate), which is what the QoS cost model needs.
type TextToSpeech struct{}

// speechBytesPerChar is the simulated codec expansion factor.
const speechBytesPerChar = 16

// Name implements Transformer.
func (TextToSpeech) Name() string { return "text-to-speech" }

// From implements Transformer.
func (TextToSpeech) From() Kind { return KindText }

// To implements Transformer.
func (TextToSpeech) To() Kind { return KindSpeech }

// Transform implements Transformer.
func (TextToSpeech) Transform(in *Object) (*Object, error) {
	if in.Kind != KindText {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, in)
	}
	text := string(in.Data)
	// Stream layout: "SP01" | textLen uint32 | text | phoneme frames.
	// Embedding the text keeps the simulated speech→text inverse exact,
	// mirroring a perfect recognizer.
	data := make([]byte, 0, 8+len(text)+len(text)*speechBytesPerChar)
	data = append(data, 'S', 'P', '0', '1')
	data = binary.BigEndian.AppendUint32(data, uint32(len(text)))
	data = append(data, text...)
	for i, ch := range []byte(text) {
		for j := 0; j < speechBytesPerChar; j++ {
			data = append(data, byte(int(ch)*31+i*7+j*13))
		}
	}
	return &Object{
		Kind:        KindSpeech,
		Format:      FormatSpeech,
		Data:        data,
		Description: in.Description,
	}, nil
}

// SpeechToText recovers text from the simulated speech stream.
type SpeechToText struct{}

// Name implements Transformer.
func (SpeechToText) Name() string { return "speech-to-text" }

// From implements Transformer.
func (SpeechToText) From() Kind { return KindSpeech }

// To implements Transformer.
func (SpeechToText) To() Kind { return KindText }

// Transform implements Transformer.
func (SpeechToText) Transform(in *Object) (*Object, error) {
	if in.Kind != KindSpeech || len(in.Data) < 8 || string(in.Data[:4]) != "SP01" {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, in)
	}
	n := int(binary.BigEndian.Uint32(in.Data[4:]))
	if len(in.Data) < 8+n {
		return nil, fmt.Errorf("%w: truncated speech stream", ErrBadInput)
	}
	text := string(in.Data[8 : 8+n])
	return &Object{Kind: KindText, Format: FormatText, Data: []byte(text), Description: in.Description}, nil
}
