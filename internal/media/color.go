package media

import (
	"fmt"

	"adaptiveqos/internal/wavelet"
)

// FormatEZWColor is the progressive color stream format: luma first,
// then chroma, so truncation degrades toward grayscale before it
// degrades in resolution.
const FormatEZWColor = "ezc"

// EncodeColorImage wraps a color raster as a progressive media object.
// Its "color" attribute is true — the Figure 3 negotiation attribute.
func EncodeColorImage(im *wavelet.ColorImage, description string) (*Object, error) {
	stream, band, err := wavelet.EncodeColorBand(im, 0, wavelet.Filter53, wavelet.SketchMaxDim)
	if err != nil {
		return nil, err
	}
	return imageObject(FormatEZWColor, stream, band, im.W, im.H, description)
}

// IsColor reports whether an object carries color visual content.
func IsColor(o *Object) bool {
	return o.Kind == KindImage && o.Format == FormatEZWColor
}

// ToGrayscale converts a color image object to the grayscale
// progressive format — the "B/W transformation" a monochrome-capable
// client advertises in Figure 3.  The colour container codes its luma
// plane as a gray stream of its own, so the conversion is a copy of
// that byte range, no decode: on a truncated object, the truncated luma
// plane itself.  The carried sketch, drawn from the luma plane, stays.
// Grayscale objects pass through unchanged (as a copy).
func ToGrayscale(o *Object) (*Object, error) {
	if !isProgressiveImage(o) {
		return nil, fmt.Errorf("%w: %s", ErrBadInput, o)
	}
	if o.Format == FormatEZW {
		return o.Clone(), nil
	}
	si, err := wavelet.Inspect(o.Data)
	if err != nil {
		return nil, err
	}
	if !si.Color {
		return nil, fmt.Errorf("%w: %s holds no colour container", ErrBadInput, o)
	}
	luma := si.Planes[0]
	return &Object{
		Kind:        KindImage,
		Format:      FormatEZW,
		Data:        append([]byte(nil), o.Data[luma.Start:luma.End]...),
		Description: o.Description,
		Width:       si.W,
		Height:      si.H,
		Sketch:      o.Sketch,
	}, nil
}

// colorToGray is the registered module form of ToGrayscale.  It maps
// image→image (a format conversion within the modality), so it is
// addressed by name rather than by the modality-path search.
type colorToGray struct{}

// Name implements Transformer.
func (colorToGray) Name() string { return "color-to-grayscale" }

// From implements Transformer.
func (colorToGray) From() Kind { return KindImage }

// To implements Transformer.
func (colorToGray) To() Kind { return KindImage }

// Transform implements Transformer.
func (colorToGray) Transform(in *Object) (*Object, error) { return ToGrayscale(in) }
