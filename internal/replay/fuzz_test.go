package replay

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
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
