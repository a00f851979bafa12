package replay

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
)

// FuzzLoadGrid holds the policy-grid loader, which reads a file a user
// hands qosreplay, to "never panic", to "every accepted policy has a
// positive stall timeout", and to a fixed point: the grid it returns,
// marshalled and loaded again, is the same grid.  The seed corpus
// (testdata/fuzz/FuzzLoadGrid) is DefaultGrid marshalled, both accepted
// shapes, a stall timeout that overflowed into a negative Duration,
// negative and huge retry budgets, duplicate names, null and junk.
func FuzzLoadGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		grid, err := LoadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range grid {
			if p.Repair.StallTimeout() <= 0 {
				t.Fatalf("policy %q loaded with stall timeout %v", p.Name, p.Repair.StallTimeout())
			}
		}
		out, err := json.Marshal(grid)
		if err != nil {
			t.Fatal(err)
		}
		again, err := LoadGrid(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("the loaded grid does not load again: %v\n%s", err, out)
		}
		if !slices.Equal(again, grid) {
			t.Fatalf("LoadGrid(json.Marshal(grid)) != grid:\n%+v\n%+v", again, grid)
		}
	})
}

// FuzzLoadRecord holds the bytes qosreplay reads — a session record
// through obs.LoadSession, then ExtractWorkload — to "never panic", and
// an accepted session to three properties: written back as header plus
// events it loads again as itself; every prefix of that writing longer
// than the header line loads without error, its events a prefix of the
// session's; and the workload extracted from it, if any, has a mean
// loss in [0, 1] and publishes the wire codec can carry.  The seed
// corpus (testdata/fuzz/FuzzLoadRecord) holds a small session, a torn
// tail, a corrupt middle line, a bad header, publishes at and past the
// codec's limits, and loss samples of 5 and of 1e308 twice, which at
// one time carried the mean loss to 5 and to +Inf.
func FuzzLoadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := obs.LoadSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		if err := enc.Encode(s.Header); err != nil {
			t.Fatal(err)
		}
		header := out.Len()
		for _, ev := range s.Events {
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
		again, err := obs.LoadSession(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("the written-back session does not load: %v\n%s", err, out.Bytes())
		}
		if again.Header != s.Header || !slices.Equal(again.Events, s.Events) {
			t.Fatalf("the written-back session loads differently:\n%+v\n%+v", again, s)
		}
		for n := header; n < out.Len(); n++ {
			p, err := obs.LoadSession(bytes.NewReader(out.Bytes()[:n]))
			if err != nil {
				t.Fatalf("prefix of %d bytes: %v", n, err)
			}
			if len(p.Events) > len(s.Events) || !slices.Equal(p.Events, s.Events[:len(p.Events)]) {
				t.Fatalf("prefix of %d bytes loads events that are not a prefix of the session's", n)
			}
		}

		w, err := ExtractWorkload(s)
		if err != nil {
			return
		}
		if !(w.MeanLoss >= 0 && w.MeanLoss <= 1) {
			t.Fatalf("mean loss %v outside [0, 1]", w.MeanLoss)
		}
		for _, p := range w.Publishes {
			if p.Size < 0 || p.Size > message.MaxBodyLen || len(p.Sender) > message.MaxStringLen || len(p.Modality) > message.MaxStringLen {
				t.Fatalf("publish beyond the wire codec's limits: %d bytes, sender %d, modality %d", p.Size, len(p.Sender), len(p.Modality))
			}
		}
	})
}
