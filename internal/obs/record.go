package obs

// Persistent session recorder (DESIGN.md §13): an opt-in JSONL stream
// of spans, QoS samples, decisions, SLO transitions and publishes, with
// a versioned schema and a truncation-tolerant loader, which
// counterfactual replay reads back.  While none is installed RecordEvent
// is one atomic load; an installed recorder encodes each event in its
// caller, under one mutex, into a buffered writer Close flushes, and
// counts it (aqos_record_appended): LoadSession reads back exactly those.

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"adaptiveqos/internal/metrics"
)

// RecordSchema and RecordVersion identify the JSONL format; the version
// bumps on any incompatible change to RecHeader or RecEvent.
const (
	RecordSchema  = "aqos-session-record"
	RecordVersion = 1
)

// Recorder load errors: a header of another schema or a newer version,
// and an undecodable line that is not the last (see LoadSession).
var (
	ErrRecordSchema  = errors.New("obs: unrecognized session-record schema")
	ErrRecordCorrupt = errors.New("obs: corrupt session-record line")
)

// Record event types.
const (
	RecTypeHeader   = "header"
	RecTypeSpan     = "span"     // one pipeline stage span completion
	RecTypeQoS      = "qos"      // one sampled QoS gauge value
	RecTypeDecision = "decision" // one inference decision
	RecTypeSLO      = "slo"      // one SLO conformance transition
	RecTypeNote     = "note"     // free-form annotation
	RecTypePublish  = "publish"  // one published workload frame (sender, seq, size)
)

// RecHeader is the first line of a session record.
type RecHeader struct {
	Type    string `json:"type"`    // RecTypeHeader
	Schema  string `json:"schema"`  // RecordSchema
	Version int    `json:"version"` // RecordVersion
	Node    string `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
}

// RecEvent is one recorded session event.  Beyond Type and AtNS: spans
// carry Msg/Stage/NS, QoS samples Name/Value, decisions and SLO
// transitions Client/Name/Detail, publishes Client (the sender) and
// Seq/Level/Size, optional fields that keep the schema at version 1.
// Msg is the 16-hex trace id as a string (JSON numbers lose uint64
// precision outside Go).
type RecEvent struct {
	Type   string  `json:"type"`
	AtNS   int64   `json:"at_ns"`
	Client string  `json:"client,omitempty"`
	Stage  string  `json:"stage,omitempty"`
	Msg    string  `json:"msg,omitempty"`
	NS     int64   `json:"ns,omitempty"`
	Name   string  `json:"name,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Seq    uint64  `json:"seq,omitempty"`   // publish: per-sender event/data sequence
	Level  int     `json:"level,omitempty"` // publish: progressive refinement level
	Size   int     `json:"size,omitempty"`  // publish: payload bytes
}

// Recorder writes session events to one writer as JSONL.
type Recorder struct {
	mu     sync.Mutex // serializes Append and Close
	closed bool
	enc    *json.Encoder
	w      *bufio.Writer
	closer io.Closer // underlying file, when opened by StartRecording
	err    error     // first write/flush error, reported by Close

	appended *metrics.Counter
	dropped  *metrics.Counter
}

// NewRecorder starts a recorder writing to w.  The header line is
// written before any event.  Callers must Close to flush.
func NewRecorder(w io.Writer, node string) *Recorder {
	bw := bufio.NewWriterSize(w, 1<<16)
	r := &Recorder{
		enc:      json.NewEncoder(bw),
		w:        bw,
		appended: metrics.C(metrics.CtrRecordAppended),
		dropped:  metrics.C(metrics.CtrRecordDropped),
	}
	r.err = r.enc.Encode(RecHeader{
		Type:    RecTypeHeader,
		Schema:  RecordSchema,
		Version: RecordVersion,
		Node:    node,
		StartNS: nowNS(),
	})
	return r
}

// Append writes one event, counted as aqos_record_appended.  An event
// offered after Close is counted as aqos_record_dropped instead.
func (r *Recorder) Append(ev RecEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped.Inc()
		return
	}
	r.err = cmp.Or(r.err, r.enc.Encode(ev))
	r.appended.Inc()
}

// Close flushes the buffer, closes the file StartRecording opened, and
// returns the first write error.  Close is idempotent.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	r.closed = true
	r.err = cmp.Or(r.err, r.w.Flush())
	if r.closer != nil {
		r.err = cmp.Or(r.err, r.closer.Close())
	}
	return r.err
}

// rec is the installed process-global recorder; nil means recording
// is off.  RecordEvent's disabled path is this one atomic load.
var rec atomic.Pointer[Recorder]

// Recording reports whether a session recorder is installed: call sites
// that would allocate building an event gate on it.
func Recording() bool { return rec.Load() != nil }

// RecordEvent offers one event to the installed recorder; a no-op
// (one atomic load, zero allocations) while recording is off.
func RecordEvent(ev RecEvent) {
	if r := rec.Load(); r != nil {
		r.Append(ev)
	}
}

// RecordPublish records that sender published a frame (kind "event" or
// "data", modality from the media attribute) with the given per-sender
// seq, refinement level and payload size at atNS: counterfactual replay
// (DESIGN.md §15) rebuilds the workload from these.  No-op while
// recording is off.
func RecordPublish(atNS int64, sender string, seq uint64, kind, modality string, level, size int) {
	RecordEvent(RecEvent{Type: RecTypePublish, AtNS: atNS, Client: sender, Name: kind,
		Detail: modality, Seq: seq, Level: level, Size: size})
}

// InstallRecorder makes r the process-global recorder (nil
// uninstalls) and returns the previous one, which the caller still
// owns and must Close.
func InstallRecorder(r *Recorder) *Recorder {
	return rec.Swap(r)
}

// StartRecording creates path, installs a recorder streaming to it,
// and returns it.  The caller stops with StopRecording (or Close
// after InstallRecorder(nil)).
func StartRecording(path, node string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := NewRecorder(f, node)
	r.closer = f
	if prev := InstallRecorder(r); prev != nil {
		prev.Close()
	}
	return r, nil
}

// StopRecording uninstalls and closes the process-global recorder
// (no-op when none is installed).
func StopRecording() error {
	r := InstallRecorder(nil)
	if r == nil {
		return nil
	}
	return r.Close()
}

// TraceHex renders a trace identifier the way session records and
// /debug/trace queries spell it: 16 lowercase hex digits.
func TraceHex(id uint64) string {
	return fmt.Sprintf("%016x", id)
}

// Session is a loaded session record.
type Session struct {
	Header RecHeader
	Events []RecEvent
	// Truncated reports that the final line was a partial write (a
	// crash mid-append) and was ignored; everything before it loaded
	// cleanly.
	Truncated bool
}

// CountByType tallies the loaded events per type.
func (s *Session) CountByType() map[string]int {
	out := make(map[string]int, 8)
	for i := range s.Events {
		out[s.Events[i].Type]++
	}
	return out
}

// LoadSession reads a session record.  The header line must carry the
// known schema at a version this build understands.  A truncated
// FINAL line — a half-written tail from a crash — is tolerated and
// flagged; an undecodable line anywhere else is ErrRecordCorrupt.
func LoadSession(rd io.Reader) (*Session, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	line, err := readRecordLine(br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: empty record", ErrRecordSchema)
		}
		return nil, err
	}
	var hdr RecHeader
	if jerr := json.Unmarshal(line, &hdr); jerr != nil ||
		hdr.Type != RecTypeHeader || hdr.Schema != RecordSchema {
		return nil, fmt.Errorf("%w: bad header line", ErrRecordSchema)
	}
	if hdr.Version > RecordVersion || hdr.Version < 1 {
		return nil, fmt.Errorf("%w: version %d (this build reads <= %d)",
			ErrRecordSchema, hdr.Version, RecordVersion)
	}
	s := &Session{Header: hdr}
	for lineNo := 2; ; lineNo++ {
		line, err = readRecordLine(br)
		if len(line) == 0 && errors.Is(err, io.EOF) {
			return s, nil
		}
		final := errors.Is(err, io.EOF)
		if err != nil && !final {
			return nil, err
		}
		var ev RecEvent
		if jerr := json.Unmarshal(line, &ev); jerr != nil {
			if final {
				// A partial tail: the crash interrupted the last write.
				s.Truncated = true
				return s, nil
			}
			return nil, fmt.Errorf("%w: line %d: %v", ErrRecordCorrupt, lineNo, jerr)
		}
		s.Events = append(s.Events, ev)
		if final {
			return s, nil
		}
	}
}

// readRecordLine reads one newline-terminated line, returning the
// bytes without the terminator.  io.EOF with data means the file
// ended without a final newline.
func readRecordLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	return line, err
}

// LoadSessionFile loads a session record from disk.
func LoadSessionFile(path string) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSession(f)
}
