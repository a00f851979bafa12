package media

import (
	"encoding/binary"
	"errors"
	"testing"

	"adaptiveqos/internal/wavelet"
)

// testVideo packs nFrames 32×32 frames at 24 fps into the container
// video.go reads (no program produces video: the decoder's inputs are
// built here).
func testVideo(t *testing.T, nFrames int) *Object {
	t.Helper()
	data := []byte(videoMagic)
	data = binary.BigEndian.AppendUint16(data, 32)
	data = binary.BigEndian.AppendUint16(data, 32)
	data = append(data, 24)
	data = binary.BigEndian.AppendUint16(data, uint16(nFrames))
	for i := 0; i < nFrames; i++ {
		stream, _, err := wavelet.EncodeBand(wavelet.Medical(32, 32, int64(i+1)), 0, wavelet.Filter53, 0)
		if err != nil {
			t.Fatal(err)
		}
		data = binary.BigEndian.AppendUint32(data, uint32(len(stream)))
		data = append(data, stream...)
	}
	return &Object{Kind: KindVideo, Format: FormatVideoSeq, Data: data,
		Description: "surveillance clip, gate 3", Width: 32, Height: 32}
}

func TestEncodeVideoAndInfo(t *testing.T) {
	obj := testVideo(t, 6)
	if obj.Kind != KindVideo || obj.Format != FormatVideoSeq || obj.Width != 32 {
		t.Errorf("object: %+v", obj)
	}
	info, err := VideoInfoOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	if info != (VideoInfo{Width: 32, Height: 32, FPS: 24, Frames: 6}) {
		t.Errorf("info: %+v", info)
	}

	// Every frame decodes losslessly.
	for i := 0; i < 6; i++ {
		res, err := DecodeVideoFrame(obj, i)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !res.Lossless || !res.Image.Equal(wavelet.Medical(32, 32, int64(i+1))) {
			t.Errorf("frame %d not exact", i)
		}
	}
	if _, err := DecodeVideoFrame(obj, 6); !errors.Is(err, ErrBadInput) {
		t.Errorf("out-of-range frame: %v", err)
	}
	if _, err := DecodeVideoFrame(obj, -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative frame: %v", err)
	}
}

func TestEncodeVideoValidation(t *testing.T) {
	// Corrupted containers.
	obj := testVideo(t, 2)
	bad := obj.Clone()
	bad.Data[0] = 'X'
	if _, err := VideoInfoOf(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad magic: %v", err)
	}
	bad = obj.Clone()
	bad.Data = bad.Data[:15] // truncated mid-frame
	if _, err := DecodeVideoFrame(bad, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("truncated: %v", err)
	}
	if _, err := VideoInfoOf(newText("x")); !errors.Is(err, ErrBadInput) {
		t.Errorf("text as video: %v", err)
	}
}

func TestVideoTransformChain(t *testing.T) {
	reg := DefaultRegistry()
	obj := testVideo(t, 3)

	// video → image (keyframe).
	img, err := reg.Transmode(obj, KindImage)
	if err != nil {
		t.Fatal(err)
	}
	if img.Kind != KindImage || img.Format != FormatEZW {
		t.Errorf("keyframe: %+v", img)
	}
	res, err := decodeImage(img)
	if err != nil || !res.Image.Equal(wavelet.Medical(32, 32, 1)) {
		t.Errorf("keyframe content: %v", err)
	}

	// Full degradation chain: video → ... → text keeps the semantics.
	txt, err := reg.Transmode(obj, KindText)
	if err != nil {
		t.Fatal(err)
	}
	if string(txt.Data) != "surveillance clip, gate 3" {
		t.Errorf("video->text: %q", txt.Data)
	}

	// ... and even speech.
	sp, err := reg.Transmode(obj, KindSpeech)
	if err != nil || sp.Kind != KindSpeech {
		t.Errorf("video->speech: %v", err)
	}

	if !canReach(reg, KindVideo, KindSketch) {
		t.Error("video should reach sketch via keyframe")
	}
	// No path back up.
	if canReach(reg, KindText, KindVideo) {
		t.Error("text->video should not exist")
	}
}
