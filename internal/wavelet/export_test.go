package wavelet

// What no program calls and the tests are held to: the stream-only
// encoders, and DecodeLuma, the derivation the carried sketch replaced
// — the oracle EncodeBand's band is checked against.

// Encode is EncodeFilter with the 5/3 filter.
func Encode(im *Image, levels int) ([]byte, error) { return EncodeFilter(im, levels, Filter53) }

// EncodeFilter is EncodeBand without the band.
func EncodeFilter(im *Image, levels int, filter Filter) ([]byte, error) {
	stream, _, err := encode(im, levels, filter)
	return stream, err
}

// EncodeColor is EncodeColorBand without the band.
func EncodeColor(c *ColorImage, levels int, filter Filter) ([]byte, error) {
	stream, _, err := EncodeColorBand(c, levels, filter, 0)
	return stream, err
}

// DecodeLuma is Decode for gray and colour streams alike: it decodes
// the luma plane alone, clamped to the 8-bit display range.  For a
// colour stream that is one plane pass instead of DecodeColor's three,
// and on a complete stream the same raster as the luma of DecodeColor's
// result.  maxDim > 0 stops the inverse transform early: the raster is
// the finest LL band that fits maxDim on both sides, or the deepest
// band the stream was coded with.  maxDim ≤ 0 returns the full plane.
func DecodeLuma(stream []byte, maxDim int) (*DecodeResult, error) {
	si, err := Inspect(stream)
	if err != nil {
		return nil, err
	}
	return decode(stream[si.Planes[0].Start:si.Planes[0].End], true, maxDim)
}
