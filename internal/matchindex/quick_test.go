package matchindex_test

// Property test for the tentpole contract (DESIGN.md §12): for any
// selector the language can express — conjunctions, disjunctions,
// negation, like-globs, in-lists, exists, mixed-kind comparisons —
// index-first matching through the registry must return
// exactly the set the brute-force evaluator returns over the same
// profiles.  The generator deliberately covers the fallback taxonomy
// (residue conjuncts, residue-only branches, match-all, constant
// false) and the numeric edge cases (NaN and ±Inf attribute values).

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/selector"
)

var quickAttrs = []string{"media", "region", "size", "cap.display", "state.sir", "client"}

func quickValue(r *rand.Rand) selector.Value {
	switch r.Intn(6) {
	case 0:
		return selector.S([]string{"video", "audio", "image", "text", ""}[r.Intn(5)])
	case 1:
		return selector.N(float64(r.Intn(16) - 8))
	case 2:
		return selector.N(math.Trunc(r.Float64()*1e5) / 1e2)
	case 3:
		return selector.B(r.Intn(2) == 0)
	case 4:
		return selector.N(math.Inf(1 - 2*r.Intn(2)))
	default:
		return selector.N(math.NaN())
	}
}

// quickExpr builds a random expression of bounded depth over the shared
// attribute vocabulary, covering every AST node the planner classifies.
func quickExpr(r *rand.Rand, depth int) selector.Expr {
	attr := func() string { return quickAttrs[r.Intn(len(quickAttrs))] }
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return &selector.BoolLit{Val: r.Intn(2) == 0}
		case 1, 2:
			return &selector.Cmp{Attr: attr(), Op: selector.Op(r.Intn(6)), Lit: quickValue(r)}
		case 3:
			n := r.Intn(4)
			list := make([]selector.Value, n)
			for i := range list {
				list[i] = quickValue(r)
			}
			return &selector.In{Attr: attr(), List: list}
		case 4:
			return &selector.Exists{Attr: attr()}
		default:
			return &selector.Like{Attr: attr(), Pattern: []string{"v*", "*deo", "w?", "[av]*"}[r.Intn(4)]}
		}
	}
	switch r.Intn(4) {
	case 0:
		return &selector.And{X: quickExpr(r, depth-1), Y: quickExpr(r, depth-1)}
	case 1:
		return &selector.Or{X: quickExpr(r, depth-1), Y: quickExpr(r, depth-1)}
	case 2:
		return &selector.Not{X: quickExpr(r, depth-1)}
	default:
		return quickExpr(r, depth-1)
	}
}

// quickPopulation fills both registries with the same randomized
// profiles and returns the flattened views for brute evaluation.
func quickPopulation(r *rand.Rand, regs ...*registry.Registry) map[string]selector.Attributes {
	flats := make(map[string]selector.Attributes)
	n := 16 + r.Intn(48)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		p := profile.New(id)
		if r.Intn(4) != 0 {
			p.Interests["media"] = quickValue(r)
		}
		if r.Intn(4) != 0 {
			p.Interests["region"] = quickValue(r)
		}
		if r.Intn(2) == 0 {
			p.Interests["size"] = selector.N(float64(r.Intn(100) * 1000))
		}
		if r.Intn(2) == 0 {
			p.Capabilities["display"] = quickValue(r)
		}
		if r.Intn(2) == 0 {
			p.State["sir"] = quickValue(r)
		}
		for _, reg := range regs {
			reg.Put(p)
		}
		flats[id] = p.Flatten()
	}
	return flats
}

func sortedMatchIDs(reg *registry.Registry, sel *selector.Selector) []string {
	ids := reg.MatchIDs(sel)
	sort.Strings(ids)
	return ids
}

func bruteMatch(flats map[string]selector.Attributes, sel *selector.Selector) []string {
	out := make([]string, 0, len(flats))
	for id, flat := range flats {
		if sel.Matches(flat) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func idsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickIndexEquivalence is the randomized equivalence harness:
// indexed and brute registries agree with each other and with direct
// evaluation over the flattened views, across random selectors,
// profiles and interleaved state mutations.
func TestQuickIndexEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		indexed := registry.NewWithIndex(true)
		brute := registry.NewWithIndex(false)
		flats := quickPopulation(r, indexed, brute)

		for round := 0; round < 6; round++ {
			sel := selector.FromExpr(quickExpr(r, 1+r.Intn(3)))
			want := bruteMatch(flats, sel)
			if got := sortedMatchIDs(indexed, sel); !idsEqual(got, want) {
				t.Logf("seed %d round %d: indexed mismatch for %q:\n got %v\nwant %v",
					seed, round, sel.Source(), got, want)
				return false
			}
			if got := sortedMatchIDs(brute, sel); !idsEqual(got, want) {
				t.Logf("seed %d round %d: brute mismatch for %q:\n got %v\nwant %v",
					seed, round, sel.Source(), got, want)
				return false
			}

			// Mutate a few profiles between rounds so the equivalence
			// also covers dirty-set invalidation and reindexing.
			for m := 0; m < 3; m++ {
				id := fmt.Sprintf("w%d", r.Intn(len(flats)))
				v := quickValue(r)
				if err := indexed.UpdateStates(id, []profile.StateKV{{Name: "sir", V: v}}); err != nil {
					continue
				}
				if err := brute.UpdateStates(id, []profile.StateKV{{Name: "sir", V: v}}); err != nil {
					continue
				}
				flats[id], _, _ = indexed.FlatSnapshot(id)
			}
		}

		// And again on the surviving state.
		sel := selector.FromExpr(quickExpr(r, 2))
		want := bruteMatch(flats, sel)
		if got := sortedMatchIDs(indexed, sel); !idsEqual(got, want) {
			t.Logf("seed %d: mismatch after mutations for %q:\n got %v\nwant %v", seed, sel.Source(), got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
