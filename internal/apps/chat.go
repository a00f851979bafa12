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

// ChatArea is the shared text-chat application.  It stores its lines'
// text back to back in one arena, so a warm area applies a line
// without allocating, and builds ChatLines only when Lines is called.
type ChatArea struct {
	mu sync.RWMutex
	// The kept lines are lines[first:].  A text offset counts from the
	// first byte the area ever held: text[k] is offset base+k, the kept
	// text begins at start and each line's ends at its end.
	text               []byte
	lines              []chatRecord
	base, start, first int
	// MaxLines bounds history; 0 = unlimited.
	MaxLines int
}

type chatRecord struct {
	sender string
	end    int
}

// NewChatArea returns an empty chat area.
func NewChatArea() *ChatArea { return &ChatArea{} }

// EncodeSay builds the event payload for a chat line, in one
// allocation of exactly its length.
func EncodeSay(text string) []byte {
	return AppendSay(make([]byte, 0, 4+len(text)), text)
}

// AppendSay appends the event payload for a chat line to dst: how a
// publisher encodes into a buffer it reuses.
func AppendSay(dst []byte, text string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(text)))
	return append(dst, text...)
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
	var cut int
	c.text, cut = reclaim(c.text, c.start-c.base, n)
	c.base += cut
	c.lines, cut = reclaim(c.lines, c.first, 1)
	c.first -= cut
	c.text = append(c.text, payload[4:]...)
	c.lines = append(c.lines, chatRecord{sender: sender, end: c.base + len(c.text)})
	if drop := len(c.lines) - c.first - c.MaxLines; c.MaxLines > 0 && drop > 0 {
		c.start = c.lines[c.first+drop-1].end
		clear(c.lines[c.first : c.first+drop])
		c.first += drop
	}
	return nil
}

// reclaim moves s[cut:] to the front of s when appending need more
// would outgrow it and the cut prefix is at least half of it, and
// returns how many it dropped.  Otherwise append grows s, which keeps
// unlimited history at O(log n) allocations.
func reclaim[T any](s []T, cut, need int) ([]T, int) {
	if len(s)+need <= cap(s) || cut < len(s)/2 {
		return s, 0
	}
	return s[:copy(s, s[cut:])], cut
}

// Lines returns a copy of the history.  The lines' texts share one
// string.
func (c *ChatArea) Lines() []ChatLine {
	c.mu.RLock()
	defer c.mu.RUnlock()
	text, from := string(c.text[c.start-c.base:]), c.start
	out := make([]ChatLine, 0, len(c.lines)-c.first)
	for _, l := range c.lines[c.first:] {
		out = append(out, ChatLine{Sender: l.sender, Text: text[from-c.start : l.end-c.start]})
		from = l.end
	}
	return out
}

// Len returns the number of stored lines.
func (c *ChatArea) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.lines) - c.first
}
