package replay

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
)

func TestParseGaugeName(t *testing.T) {
	cases := []struct {
		in     string
		base   string
		labels map[string]string
		ok     bool
	}{
		{"plain", "plain", map[string]string{}, true},
		{`host_param{host="h0",param="cpu-load"}`, "host_param",
			map[string]string{"host": "h0", "param": "cpu-load"}, true},
		{`client_sir_db{bs="bs0",client="w0"}`, "client_sir_db",
			map[string]string{"bs": "bs0", "client": "w0"}, true},
		{`x{k="a\"b\\c"}`, "x", map[string]string{"k": `a"b\c`}, true},
		{`client_sir_db{bs="bs0",client="w\n0"}`, "client_sir_db",
			map[string]string{"bs": "bs0", "client": "w\n0"}, true},
		{`x{k="unterminated`, "", nil, false},
		{`x{k=}`, "", nil, false},
		{`x{k="v"`, "", nil, false},
	}
	for _, c := range cases {
		base, labels, ok := parseGaugeName(c.in)
		if ok != c.ok || base != c.base {
			t.Errorf("%q: got (%q, %v, %v)", c.in, base, labels, ok)
			continue
		}
		for k, v := range c.labels {
			if labels[k] != v {
				t.Errorf("%q: label %q = %q, want %q", c.in, k, labels[k], v)
			}
		}
	}
}

// recordSession writes a synthetic session through the real recorder
// and loads it back, so extraction is tested against the actual wire
// format.
func recordSession(t *testing.T, emit func()) *obs.Session {
	t.Helper()
	var buf bytes.Buffer
	r := obs.NewRecorder(&buf, "test")
	prev := obs.InstallRecorder(r)
	emit()
	obs.InstallRecorder(prev)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := obs.LoadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExtractWorkload(t *testing.T) {
	s := recordSession(t, func() {
		obs.RecordPublish(2000, "alice", 1, "event", "", 0, 64)
		obs.RecordPublish(1000, "bob", 1, "event", "image", 0, 64)
		obs.RecordPublish(3000, "alice", 2, "data", "image", 1, 900)
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 1500,
			Name: `host_param{host="h0",param="cpu-load"}`, Value: 42})
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 2500,
			Name: `client_sir_db{bs="bs0",client="w0"}`, Value: 5.5})
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 2600,
			Name: `rtp_loss_fraction{client="carol",sender="alice"}`, Value: 0.3})
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 2700,
			Name: `rtp_loss_fraction{client="carol"}`, Value: 0.9}) // aggregate: ignored
	})
	w, err := ExtractWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Publishes) != 3 {
		t.Fatalf("publishes = %d, want 3", len(w.Publishes))
	}
	// Sorted by (AtNS, Sender, Seq).
	if w.Publishes[0].Sender != "bob" || w.Publishes[2].Kind != "data" ||
		w.Publishes[2].Level != 1 || w.Publishes[2].Size != 900 {
		t.Errorf("publish order/fields wrong: %+v", w.Publishes)
	}
	if got := strings.Join(w.Senders, ","); got != "alice,bob" {
		t.Errorf("senders = %q", got)
	}
	if got := strings.Join(w.Receivers, ","); got != "alice,bob,carol" {
		t.Errorf("receivers = %q", got)
	}
	if len(w.Host["cpu-load"]) != 1 || w.Host["cpu-load"][0].Value != 42 {
		t.Errorf("host timeline: %+v", w.Host)
	}
	if len(w.SIR) != 1 || w.SIR[0].Client != "w0" || w.SIR[0].SIRdB != 5.5 {
		t.Errorf("sir trace: %+v", w.SIR)
	}
	if w.MeanLoss != 0.3 {
		t.Errorf("mean loss = %v, want 0.3 (aggregate sample must be excluded)", w.MeanLoss)
	}
	if w.StartNS != 1000 || w.EndNS != 3000 {
		t.Errorf("span = [%d, %d], want [1000, 3000]", w.StartNS, w.EndNS)
	}
	v := w.hostValueAt("cpu-load", 2000)
	if v != 42 {
		t.Errorf("hostValueAt(2000) = %v, want 42", v)
	}
	if v := w.hostValueAt("cpu-load", 1000); !math.IsNaN(v) {
		t.Errorf("hostValueAt before first sample = %v, want NaN", v)
	}
}

// A session run on a virtual clock stamps its publishes and QoS samples
// on that clock and its spans and notes on the wall, decades later: the
// workload spans only the events the rerun replays.
func TestExtractWorkloadSpansPublishesAndQoS(t *testing.T) {
	const wall = int64(56 * 365 * 24 * time.Hour) // about 2026 on the Unix epoch
	s := recordSession(t, func() {
		obs.RecordPublish(1000, "alice", 1, "event", "", 0, 64)
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeSpan, AtNS: wall, Stage: "deliver", NS: 250})
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 4000,
			Name: `rtp_loss_fraction{client="bob",sender="alice"}`, Value: 0.1})
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeNote, AtNS: wall + 1, Detail: "repair"})
	})
	w, err := ExtractWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if w.StartNS != 1000 || w.EndNS != 4000 {
		t.Errorf("span = [%d, %d], want [1000, 4000]", w.StartNS, w.EndNS)
	}
}

func TestExtractWorkloadNoPublishes(t *testing.T) {
	s := recordSession(t, func() {
		obs.RecordEvent(obs.RecEvent{Type: obs.RecTypeQoS, AtNS: 1,
			Name: `host_param{host="h0",param="cpu-load"}`, Value: 1})
	})
	if _, err := ExtractWorkload(s); !errors.Is(err, ErrNoWorkload) {
		t.Fatalf("err = %v, want ErrNoWorkload", err)
	}
}

// A publish the wire codec could not have carried is a corrupt record,
// reported at extraction rather than found by the rerun's encoder.
func TestExtractWorkloadRejectsUnencodablePublish(t *testing.T) {
	for _, size := range []int{-1, message.MaxBodyLen + 1} {
		s := recordSession(t, func() {
			obs.RecordPublish(1000, "alice", 1, "event", "", 0, size)
		})
		if _, err := ExtractWorkload(s); err == nil {
			t.Errorf("publish of %d bytes accepted", size)
		}
	}
}

func TestExtractWorkloadTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	r := obs.NewRecorder(&buf, "test")
	prev := obs.InstallRecorder(r)
	obs.RecordPublish(10, "alice", 1, "event", "", 0, 64)
	obs.RecordPublish(20, "alice", 2, "event", "", 0, 64)
	obs.InstallRecorder(prev)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final line mid-write, as a crash would.
	torn := buf.Bytes()[:buf.Len()-9]
	s, err := obs.LoadSession(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated {
		t.Fatal("session should be flagged truncated")
	}
	w, err := ExtractWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Truncated || len(w.Publishes) != 1 {
		t.Errorf("truncated=%v publishes=%d, want true/1", w.Truncated, len(w.Publishes))
	}
}

func TestExtractWorkloadEmptyRecord(t *testing.T) {
	if _, err := obs.LoadSession(strings.NewReader("")); !errors.Is(err, obs.ErrRecordSchema) {
		t.Fatalf("empty record: err = %v, want ErrRecordSchema", err)
	}
}
