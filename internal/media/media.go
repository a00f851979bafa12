// Package media implements the information transformer: a suite of
// media-specific information abstraction modules that transform shared
// information while maintaining its semantic content.
//
// Two transformation families from the paper are provided:
//
//   - Gradual gradation: reducing the fidelity of a medium without
//     changing its modality (truncating a progressive image stream to a
//     resolution threshold).
//   - Modality transformation: changing the medium entirely
//     (image→sketch, image→text, text→speech, speech→text), enabling
//     clients with minimal capabilities — e.g. a low-SIR wireless
//     participant receiving only a verbal description — to remain
//     effective participants.
//
// The transformer library is extensible: new modules register
// themselves with a Registry, and multi-hop transformation paths are
// discovered automatically.
package media

import (
	"errors"
	"fmt"

	"adaptiveqos/internal/selector"
)

// Kind is a media modality.
type Kind string

// The modalities the framework ships with.
const (
	KindText   Kind = "text"
	KindImage  Kind = "image"
	KindSketch Kind = "sketch"
	KindSpeech Kind = "speech"
	KindVideo  Kind = "video"
)

// Object is a unit of shareable media content.
type Object struct {
	// Kind is the modality.
	Kind Kind
	// Format is the encoding within the modality (e.g. "ezw" for the
	// progressive wavelet stream, "utf8" for text, "pcm-sim" for the
	// simulated speech stream).
	Format string
	// Data is the encoded content.
	Data []byte
	// Description is the verbal tag (semantic content summary) carried
	// across transformations.
	Description string
	// Width and Height are set for visual media.
	Width, Height int
	// Sketch is a progressive image's robust sketch, marshaled
	// (wavelet.Sketch.Marshal): drawn once when the image is encoded and
	// carried with every copy and cut of it; "" when it has none.
	Sketch string
}

// Size returns the content size in bytes.
func (o *Object) Size() int { return len(o.Data) }

// Clone returns a deep copy.
func (o *Object) Clone() *Object {
	c := *o
	c.Data = append([]byte(nil), o.Data...)
	return &c
}

// Attrs renders the object's descriptive attributes for semantic
// selectors (the message header vocabulary).
func (o *Object) Attrs() selector.Attributes {
	a := selector.Attributes{
		"media":    selector.S(string(o.Kind)),
		"encoding": selector.S(o.Format),
		"size":     selector.N(float64(len(o.Data))),
	}
	if o.Width > 0 {
		a["width"] = selector.N(float64(o.Width))
		a["height"] = selector.N(float64(o.Height))
	}
	if o.Kind == KindImage {
		// The Figure 3 negotiation attribute: monochrome-only clients
		// reject color content they cannot transform.
		a["color"] = selector.B(o.Format == FormatEZWColor)
	}
	if o.Description != "" {
		a["description"] = selector.S(o.Description)
	}
	return a
}

// String renders a compact description.
func (o *Object) String() string {
	return fmt.Sprintf("%s/%s %dB", o.Kind, o.Format, len(o.Data))
}

// Transformation errors.
var (
	ErrNoPath   = errors.New("media: no transformation path")
	ErrBadInput = errors.New("media: input does not match transformer")
)

// Transformer converts objects between modalities or formats.
type Transformer interface {
	// Name identifies the module.
	Name() string
	// From and To give the endpoint modalities.
	From() Kind
	To() Kind
	// Transform converts in; it must not mutate the input.
	Transform(in *Object) (*Object, error)
}

// Registry is the extensible transformer library.
type Registry struct {
	byName map[string]Transformer
	byEdge map[Kind][]Transformer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]Transformer),
		byEdge: make(map[Kind][]Transformer),
	}
}

// DefaultRegistry returns a registry with every built-in module.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(VideoToImage{})
	r.Register(colorToGray{})
	r.Register(ImageToSketch{})
	r.Register(ImageToText{})
	r.Register(SketchToText{})
	r.Register(TextToSpeech{})
	r.Register(SpeechToText{})
	return r
}

// Register installs a transformer module.
func (r *Registry) Register(t Transformer) {
	r.byName[t.Name()] = t
	r.byEdge[t.From()] = append(r.byEdge[t.From()], t)
}

// Path finds the shortest transformation chain from one modality to
// another (BFS over registered edges).  A same-kind request yields an
// empty path.
func (r *Registry) Path(from, to Kind) ([]Transformer, error) {
	if from == to {
		return nil, nil
	}
	type node struct {
		kind Kind
		path []Transformer
	}
	visited := map[Kind]bool{from: true}
	queue := []node{{kind: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, t := range r.byEdge[cur.kind] {
			next := t.To()
			if visited[next] {
				continue
			}
			path := append(append([]Transformer(nil), cur.path...), t)
			if next == to {
				return path, nil
			}
			visited[next] = true
			queue = append(queue, node{kind: next, path: path})
		}
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoPath, from, to)
}

// Transmode converts an object to the target modality along the
// shortest registered path.
func (r *Registry) Transmode(in *Object, to Kind) (*Object, error) {
	path, err := r.Path(in.Kind, to)
	if err != nil {
		return nil, err
	}
	out := in
	for _, t := range path {
		out, err = t.Transform(out)
		if err != nil {
			return nil, fmt.Errorf("media: %s: %w", t.Name(), err)
		}
	}
	if out == in {
		out = in.Clone()
	}
	return out, nil
}
