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
	"sync"

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
	a := make(selector.Attributes, 7)
	o.EachAttr(func(name string, v selector.Value) { a[name] = v })
	return a
}

// EachAttr calls fn with each of the attributes Attrs renders, in name
// order, so a sender can write them straight into the name-sorted
// attribute list a message carries.
func (o *Object) EachAttr(fn func(name string, v selector.Value)) {
	if o.Kind == KindImage {
		// The Figure 3 negotiation attribute: monochrome-only clients
		// reject color content they cannot transform.
		fn("color", selector.B(o.Format == FormatEZWColor))
	}
	if o.Description != "" {
		fn("description", selector.S(o.Description))
	}
	fn("encoding", selector.S(o.Format))
	if o.Width > 0 {
		fn("height", selector.N(float64(o.Height)))
	}
	fn("media", selector.S(string(o.Kind)))
	fn("size", selector.N(float64(len(o.Data))))
	if o.Width > 0 {
		fn("width", selector.N(float64(o.Width)))
	}
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

// Registry is the extensible transformer library.  Modules are
// registered before the registry is shared; Transmode is then safe for
// concurrent use (the base station's two segment handlers derive tiers
// through one registry at once).
type Registry struct {
	byName map[string]Transformer
	byEdge map[Kind][]Transformer

	// routes memoizes Transmode's paths, one search per (from, to) pair
	// for the registry's life, from a kind some module converts and at
	// most maxRoutes of them, so a peer naming kinds of its own cannot
	// grow it; Register forgets them.
	mu     sync.RWMutex
	routes map[[2]Kind]route
}

// maxRoutes bounds a registry's memoized paths.
const maxRoutes = 64

// route is one memoized Path result.
type route struct {
	path []Transformer
	err  error
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
	r.mu.Lock()
	r.routes = nil
	r.mu.Unlock()
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

// route is Path, searched once per (from, to) pair: the path it
// returns is shared and must not be modified.
func (r *Registry) route(from, to Kind) ([]Transformer, error) {
	key := [2]Kind{from, to}
	r.mu.RLock()
	rt, ok := r.routes[key]
	r.mu.RUnlock()
	if ok {
		return rt.path, rt.err
	}
	rt.path, rt.err = r.Path(from, to)
	if len(r.byEdge[from]) == 0 {
		return rt.path, rt.err
	}
	r.mu.Lock()
	if r.routes == nil {
		r.routes = make(map[[2]Kind]route)
	}
	if len(r.routes) < maxRoutes {
		r.routes[key] = rt
	}
	r.mu.Unlock()
	return rt.path, rt.err
}

// Transmode converts an object to the target modality along the
// shortest registered path.
func (r *Registry) Transmode(in *Object, to Kind) (*Object, error) {
	path, err := r.route(in.Kind, to)
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
