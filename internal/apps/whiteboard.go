package apps

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Point is a whiteboard coordinate.
type Point struct{ X, Y int16 }

// Stroke is one drawn figure.
type Stroke struct {
	ID     uint32
	Color  uint8 // palette index
	Width  uint8
	Points []Point
}

// Whiteboard operation codes.
const (
	wbOpStroke = 1
	wbOpErase  = 2
	wbOpClear  = 3
)

// Whiteboard is the shared vector drawing surface.
type Whiteboard struct {
	mu      sync.RWMutex
	strokes map[uint32]Stroke
	zorder  []uint32
}

// NewWhiteboard returns an empty whiteboard.
func NewWhiteboard() *Whiteboard {
	return &Whiteboard{strokes: make(map[uint32]Stroke)}
}

// EncodeStroke builds the event payload adding a stroke, in one
// allocation of exactly its length.
func EncodeStroke(s Stroke) []byte {
	out := append(make([]byte, 0, 9+4*len(s.Points)), wbOpStroke, s.Color, s.Width)
	out = binary.BigEndian.AppendUint32(out, s.ID)
	out = binary.BigEndian.AppendUint16(out, uint16(len(s.Points)))
	for _, p := range s.Points {
		out = binary.BigEndian.AppendUint16(out, uint16(p.X))
		out = binary.BigEndian.AppendUint16(out, uint16(p.Y))
	}
	return out
}

// Apply ingests a whiteboard event.
func (w *Whiteboard) Apply(payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("%w: empty whiteboard payload", ErrBadEvent)
	}
	switch payload[0] {
	case wbOpStroke:
		if len(payload) < 3+4+2 {
			return fmt.Errorf("%w: short stroke", ErrBadEvent)
		}
		s := Stroke{Color: payload[1], Width: payload[2]}
		s.ID = binary.BigEndian.Uint32(payload[3:])
		n := int(binary.BigEndian.Uint16(payload[7:]))
		if len(payload) != 9+4*n {
			return fmt.Errorf("%w: stroke points %d vs payload %d", ErrBadEvent, n, len(payload))
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		old, dup := w.strokes[s.ID]
		if !dup {
			w.zorder = append(w.zorder, s.ID)
		}
		// A redrawn stroke decodes into its own points: no reader holds
		// them, as Strokes hands out copies.
		if s.Points = old.Points; cap(s.Points) < n {
			s.Points = make([]Point, n)
		}
		s.Points = s.Points[:n]
		for i := range s.Points {
			s.Points[i].X = int16(binary.BigEndian.Uint16(payload[9+4*i:]))
			s.Points[i].Y = int16(binary.BigEndian.Uint16(payload[11+4*i:]))
		}
		w.strokes[s.ID] = s
		return nil
	case wbOpErase:
		if len(payload) != 5 {
			return fmt.Errorf("%w: erase payload", ErrBadEvent)
		}
		id := binary.BigEndian.Uint32(payload[1:])
		w.mu.Lock()
		if _, ok := w.strokes[id]; ok {
			delete(w.strokes, id)
			for i, z := range w.zorder {
				if z == id {
					w.zorder = append(w.zorder[:i], w.zorder[i+1:]...)
					break
				}
			}
		}
		w.mu.Unlock()
		return nil
	case wbOpClear:
		if len(payload) != 1 {
			return fmt.Errorf("%w: clear payload", ErrBadEvent)
		}
		w.mu.Lock()
		w.strokes = make(map[uint32]Stroke)
		w.zorder = nil
		w.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("%w: whiteboard op %d", ErrBadEvent, payload[0])
	}
}

// Strokes returns a deep copy of the strokes in z-order.
func (w *Whiteboard) Strokes() []Stroke {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]Stroke, 0, len(w.zorder))
	for _, id := range w.zorder {
		s := w.strokes[id]
		s.Points = slices.Clone(s.Points)
		out = append(out, s)
	}
	return out
}

// Len returns the number of strokes on the board.
func (w *Whiteboard) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.strokes)
}
