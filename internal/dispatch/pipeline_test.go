package dispatch

import (
	"errors"
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/transport"
)

func TestPipelineStageOrderAndSkip(t *testing.T) {
	var order []string
	p := NewPipeline(
		func(t *Task) error { order = append(order, "match"); return nil },
		func(t *Task) error { order = append(order, "tier"); t.Tier = 2; return nil },
		func(t *Task) error { order = append(order, "transform"); return nil },
		func(t *Task) error { order = append(order, "transmit"); return nil },
	)
	if err := p.Run(&Task{To: "w1"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"match", "tier", "transform", "transmit"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}

	// A skipping stage halts the pipeline without error.
	order = nil
	p = NewPipeline(
		func(t *Task) error { order = append(order, "a"); return ErrSkip },
		func(t *Task) error { order = append(order, "b"); return nil },
	)
	if err := p.Run(&Task{}); err != nil {
		t.Fatalf("skip surfaced as error: %v", err)
	}
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("skip did not halt: %v", order)
	}

	// A failing stage surfaces its error.
	boom := errors.New("boom")
	p = NewPipeline(func(t *Task) error { return boom })
	if err := p.Run(&Task{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMatchStage(t *testing.T) {
	flats := map[string]selector.Attributes{
		"yes": {"media": selector.S("image")},
		"no":  {"media": selector.S("audio")},
	}
	stage := Match(func(id string) (selector.Attributes, bool) {
		f, ok := flats[id]
		return f, ok
	})
	m := &message.Message{Kind: message.KindEvent, Selector: `media == "image"`}

	task := Task{To: "yes", Msg: m}
	if err := stage(&task); err != nil {
		t.Fatalf("matching client skipped: %v", err)
	}
	if task.Flat == nil {
		t.Fatal("flat profile not threaded onto the task")
	}
	if err := stage(&Task{To: "no", Msg: m}); !errors.Is(err, ErrSkip) {
		t.Fatal("non-matching client not skipped")
	}
	if err := stage(&Task{To: "ghost", Msg: m}); !errors.Is(err, ErrSkip) {
		t.Fatal("unknown client not skipped")
	}
}

// The transmit adapters envelope messages identically for multicast
// and unicast and land them on the right transport path.
func TestTransmitAdapters(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 5})
	defer net.Close()
	a, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Attach("c")
	if err != nil {
		t.Fatal(err)
	}

	var env message.Enveloper
	m := &message.Message{Kind: message.KindEvent, Sender: "a", Seq: 1, Body: []byte("hi")}

	mc := &Multicaster{Env: &env, Conn: a}
	if err := mc.Deliver("", m); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []transport.Conn{b, c} {
		select {
		case pkt := <-conn.Recv():
			if pkt.From != "a" {
				t.Errorf("multicast from %q", pkt.From)
			}
		default:
			// SimNet delivery is asynchronous; poll briefly.
			pkt := <-conn.Recv()
			if pkt.From != "a" {
				t.Errorf("multicast from %q", pkt.From)
			}
		}
	}

	uc := &Unicaster{Env: &env, Conn: a}
	m2 := &message.Message{Kind: message.KindEvent, Sender: "a", Seq: 2, Body: []byte("yo")}
	if err := uc.Deliver("b", m2); err != nil {
		t.Fatal(err)
	}
	if pkt := <-b.Recv(); pkt.From != "a" {
		t.Errorf("unicast from %q", pkt.From)
	}
	// "" — Conn.Give's name for the whole group — is nobody a unicast
	// adapter will send to.
	for _, to := range []string{"nobody", ""} {
		if err := uc.Deliver(to, m2); !errors.Is(err, transport.ErrUnknownNode) {
			t.Errorf("unicast to %q: %v, want ErrUnknownNode", to, err)
		}
	}
	if len(b.Recv()) != 0 || len(c.Recv()) != 0 {
		t.Errorf("failed unicasts were delivered")
	}
}
