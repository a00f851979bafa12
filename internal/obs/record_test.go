package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveqos/internal/metrics"
)

func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf, "rt-node")
	events := []RecEvent{
		{Type: RecTypeSpan, AtNS: 1, Msg: TraceHex(0xabc), Stage: "deliver", NS: 250},
		{Type: RecTypeQoS, AtNS: 2, Name: "client_loss_fraction", Value: 0.125},
		{Type: RecTypeDecision, AtNS: 3, Client: "c1", Name: "drop_video", Value: 12, Detail: "audio"},
		{Type: RecTypeSLO, AtNS: 4, Client: "c1", Name: "loss", Value: 2.5, Detail: "conforming->violated"},
		{Type: RecTypeNote, AtNS: 5, Detail: "seed=1"},
	}
	for _, ev := range events {
		r.Append(ev)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sess, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if sess.Header.Schema != RecordSchema || sess.Header.Version != RecordVersion ||
		sess.Header.Node != "rt-node" || sess.Header.StartNS == 0 {
		t.Fatalf("header = %+v", sess.Header)
	}
	if sess.Truncated {
		t.Fatal("clean record flagged truncated")
	}
	if len(sess.Events) != len(events) {
		t.Fatalf("loaded %d events, want %d", len(sess.Events), len(events))
	}
	for i, ev := range sess.Events {
		if ev != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}
	counts := sess.CountByType()
	for _, typ := range []string{RecTypeSpan, RecTypeQoS, RecTypeDecision, RecTypeSLO, RecTypeNote} {
		if counts[typ] != 1 {
			t.Errorf("count[%s] = %d, want 1", typ, counts[typ])
		}
	}
	if got := sess.Events[0].Msg; got != TraceHex(0xabc) {
		t.Errorf("recorded trace id = %q, want %q", got, TraceHex(0xabc))
	}
}

// TestRecorderConcurrentAppendClose races appenders against Close
// under -race: no panic, no lost accounting — every offered event is
// either appended (and written) or counted dropped.
func TestRecorderConcurrentAppendClose(t *testing.T) {
	before := metrics.Counters()
	var buf bytes.Buffer
	r := NewRecorder(&buf, "race-node")

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Append(RecEvent{Type: RecTypeNote, AtNS: int64(g*perG + i)})
				if g == 0 && i == perG/2 {
					r.Close() // races the other appenders
				}
			}
		}(g)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}

	after := metrics.Counters()
	appended := after[metrics.CtrRecordAppended] - before[metrics.CtrRecordAppended]
	dropped := after[metrics.CtrRecordDropped] - before[metrics.CtrRecordDropped]
	if appended+dropped != goroutines*perG {
		t.Fatalf("appended %d + dropped %d != offered %d", appended, dropped, goroutines*perG)
	}
	sess, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load after racing close: %v", err)
	}
	if uint64(len(sess.Events)) != appended {
		t.Fatalf("loaded %d events, counter says %d appended", len(sess.Events), appended)
	}
}

// TestRecorderFlushOnClose exercises the StartRecording/StopRecording
// file path: everything accepted before Stop must be on disk after.
func TestRecorderFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.jsonl")
	before := metrics.Counters()[metrics.CtrRecordAppended]
	r, err := StartRecording(path, "flush-node")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if !Recording() {
		t.Fatal("Recording() false after StartRecording")
	}
	for i := 0; i < 100; i++ {
		RecordEvent(RecEvent{Type: RecTypeQoS, AtNS: int64(i), Name: "g", Value: float64(i)})
	}
	if err := StopRecording(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if Recording() {
		t.Fatal("Recording() true after StopRecording")
	}
	// Close after Stop already closed it: idempotent, same error.
	if err := r.Close(); err != nil {
		t.Fatalf("re-close: %v", err)
	}

	appended := metrics.Counters()[metrics.CtrRecordAppended] - before
	sess, err := LoadSessionFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if uint64(len(sess.Events)) != appended || len(sess.Events) != 100 {
		t.Fatalf("loaded %d events, appended counter %d, want 100", len(sess.Events), appended)
	}
}

// TestLoadSessionTruncatedTail simulates a crash mid-append: a partial
// final line loads cleanly with Truncated set, losing only that line.
func TestLoadSessionTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf, "crash-node")
	for i := 0; i < 10; i++ {
		r.Append(RecEvent{Type: RecTypeNote, AtNS: int64(i)})
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	cut := buf.Bytes()[:buf.Len()-7] // knock the tail off the last line
	sess, err := LoadSession(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("load truncated: %v", err)
	}
	if !sess.Truncated {
		t.Fatal("truncated tail not flagged")
	}
	if len(sess.Events) != 9 {
		t.Fatalf("loaded %d events, want 9 (all but the cut line)", len(sess.Events))
	}
}

func TestLoadSessionCorruptMiddle(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf, "n")
	r.Append(RecEvent{Type: RecTypeNote, AtNS: 1})
	r.Append(RecEvent{Type: RecTypeNote, AtNS: 2})
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	lines[1] = `{"type":"note","at_ns":` // mangled mid-file line
	corrupt := strings.Join(lines, "\n") + "\n"
	if _, err := LoadSession(strings.NewReader(corrupt)); !errors.Is(err, ErrRecordCorrupt) {
		t.Fatalf("corrupt middle line: err = %v, want ErrRecordCorrupt", err)
	}
}

func TestLoadSessionSchemaChecks(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"not json", "hello\n"},
		{"wrong schema", `{"type":"header","schema":"other","version":1}` + "\n"},
		{"missing header", `{"type":"note","at_ns":1}` + "\n"},
		{"newer version", fmt.Sprintf(`{"type":"header","schema":%q,"version":%d}`+"\n",
			RecordSchema, RecordVersion+1)},
	}
	for _, tc := range cases {
		if _, err := LoadSession(strings.NewReader(tc.data)); !errors.Is(err, ErrRecordSchema) {
			t.Errorf("%s: err = %v, want ErrRecordSchema", tc.name, err)
		}
	}
}

// TestRecorderKeepsUpWithASlowWriter appends from one goroutine into
// a writer that takes a millisecond per Write: the appender waits for
// the writer, and the record holds every event it offered.
func TestRecorderKeepsUpWithASlowWriter(t *testing.T) {
	before := metrics.Counters()[metrics.CtrRecordDropped]
	var buf bytes.Buffer
	r := NewRecorder(slowWriter{&buf}, "slow-node")
	const offered = 20000
	for i := 0; i < offered; i++ {
		r.Append(RecEvent{Type: RecTypeNote, AtNS: int64(i)})
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	dropped := metrics.Counters()[metrics.CtrRecordDropped] - before
	sess, err := LoadSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(sess.Events) != offered || dropped != 0 {
		t.Fatalf("record holds %d of %d events, dropped %d", len(sess.Events), offered, dropped)
	}
}

// slowWriter takes a millisecond over every Write.
type slowWriter struct{ w io.Writer }

func (s slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.w.Write(p)
}

// TestRecordEventDisabledZeroAllocs pins the opt-in contract: with no
// recorder installed, RecordEvent is one atomic load and no
// allocation.
func TestRecordEventDisabledZeroAllocs(t *testing.T) {
	if Recording() {
		t.Skip("a recorder is installed")
	}
	ev := RecEvent{Type: RecTypeNote, AtNS: 1, Detail: "x"}
	if n := testing.AllocsPerRun(1000, func() {
		RecordEvent(ev)
	}); n != 0 {
		t.Fatalf("disabled RecordEvent allocates %.1f per run, want 0", n)
	}
}

// TestRecorderWriteErrorSurfaces verifies the first write error comes
// back from Close rather than vanishing.
func TestRecorderWriteErrorSurfaces(t *testing.T) {
	r := NewRecorder(failWriter{}, "err-node")
	// Force enough data through to defeat the 64 KiB bufio buffer.
	pad := strings.Repeat("x", 4096)
	for i := 0; i < 32; i++ {
		r.Append(RecEvent{Type: RecTypeNote, Detail: pad})
	}
	if err := r.Close(); err == nil {
		t.Fatal("close after failed writes returned nil error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk gone") }
