package wavelet

import "io"

// bitWriter accumulates bits MSB-first into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  byte
	nCur uint8
}

func (w *bitWriter) writeBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// writeGamma emits v >= 1 in Elias gamma code: floor(log2 v) zeros,
// then the binary representation of v.
func (w *bitWriter) writeGamma(v uint32) {
	if v == 0 {
		panic("wavelet: gamma code requires v >= 1")
	}
	nbits := 0
	for t := v; t > 1; t >>= 1 {
		nbits++
	}
	for i := 0; i < nbits; i++ {
		w.writeBit(0)
	}
	for i := nbits; i >= 0; i-- {
		w.writeBit(int(v >> uint(i) & 1))
	}
}

// bytes flushes any partial byte (zero-padded) and returns the stream.
func (w *bitWriter) bytes() []byte {
	out := w.buf
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// bitReader consumes bits MSB-first from a byte slice.  Reads past the
// end return io.ErrUnexpectedEOF, which the progressive decoder treats
// as "stream truncated here".
type bitReader struct {
	buf []byte
	pos int // bit position
}

func (r *bitReader) readBit() (int, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	bit := int(r.buf[byteIdx] >> (7 - uint(r.pos&7)) & 1)
	r.pos++
	return bit, nil
}

// readGamma decodes one Elias gamma value.
func (r *bitReader) readGamma() (uint32, error) {
	zeros := 0
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 31 {
			return 0, io.ErrUnexpectedEOF // corrupt; treat as truncation
		}
	}
	v := uint32(1)
	for i := 0; i < zeros; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}
