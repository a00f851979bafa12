package media_test

import (
	"fmt"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

// Modality transformation degrades content across media types while
// preserving its semantic content: an image becomes a sketch, then a
// text description — each step smaller, each still meaningful.
func ExampleRegistry_Transmode() {
	reg := media.DefaultRegistry()
	img, err := media.EncodeImage(
		wavelet.Medical(64, 64, 1), "chest scan, suspected lesion")
	if err != nil {
		panic(err)
	}

	sketch, err := reg.Transmode(img, media.KindSketch)
	if err != nil {
		panic(err)
	}
	text, err := reg.Transmode(img, media.KindText)
	if err != nil {
		panic(err)
	}

	fmt.Println("image  >", sketch.Size() < img.Size())
	fmt.Println("sketch >", text.Size() < sketch.Size())
	fmt.Printf("text: %s\n", text.Data)
	// Output:
	// image  > true
	// sketch > true
	// text: chest scan, suspected lesion
}

// Gradual gradation trims a progressive image to a byte budget; the
// truncated stream still decodes.
func ExampleGradate() {
	img, err := media.EncodeImage(wavelet.Circles(64, 64), "rings")
	if err != nil {
		panic(err)
	}
	reduced, err := media.Gradate(img, img.Size()/4)
	if err != nil {
		panic(err)
	}
	res, err := wavelet.Decode(reduced.Data)
	if err != nil {
		panic(err)
	}
	fmt.Println("quarter budget decodes:", res.Image.W == 64)
	fmt.Println("lossless:", res.Lossless)
	// Output:
	// quarter budget decodes: true
	// lossless: false
}
