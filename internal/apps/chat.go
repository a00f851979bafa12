// Package apps implements the collaboration applications the paper's
// user interface exposes — the chat area, the whiteboard and the image
// viewer — as headless state machines.  Each application consumes
// session events (remote actions replayed locally) and produces event
// payloads (local actions to be multicast), with a snapshotable state
// repository so the application interface can encode object state for
// late joiners.
package apps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// App names used in session events.
const (
	AppChat        = "chat"
	AppWhiteboard  = "whiteboard"
	AppImageViewer = "imageviewer"
)

// Application errors.
var (
	ErrBadEvent = errors.New("apps: malformed event payload")
)

// ChatLine is one utterance in the chat area.
type ChatLine struct {
	Sender string
	Text   string
}

// ChatArea is the shared text-chat application.
type ChatArea struct {
	mu    sync.RWMutex
	lines []ChatLine
	// MaxLines bounds history; 0 = unlimited.
	MaxLines int
}

// NewChatArea returns an empty chat area.
func NewChatArea() *ChatArea { return &ChatArea{} }

// EncodeSay builds the event payload for a chat line, in one
// allocation of exactly its length.
func EncodeSay(text string) []byte {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(text)), uint32(len(text)))
	return append(out, text...)
}

// Apply ingests a chat event from sender.
func (c *ChatArea) Apply(sender string, payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: chat payload %d bytes", ErrBadEvent, len(payload))
	}
	n := int(binary.BigEndian.Uint32(payload))
	if len(payload) != 4+n {
		return fmt.Errorf("%w: chat length %d vs %d", ErrBadEvent, n, len(payload)-4)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, ChatLine{Sender: sender, Text: string(payload[4:])})
	if drop := len(c.lines) - c.MaxLines; c.MaxLines > 0 && drop > 0 {
		// Slide the window instead of copying it: the cut lines are
		// cleared so their text is not retained, and append moves the
		// survivors only when the backing array runs out, once per
		// MaxLines lines or so.
		clear(c.lines[:drop])
		c.lines = c.lines[drop:]
	}
	return nil
}

// Lines returns a copy of the history.
func (c *ChatArea) Lines() []ChatLine {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]ChatLine(nil), c.lines...)
}

// Len returns the number of stored lines.
func (c *ChatArea) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.lines)
}
