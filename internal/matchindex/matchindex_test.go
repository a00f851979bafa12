package matchindex

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"adaptiveqos/internal/selector"
)

// tablePop is a test population: id → (flattened attributes, generation).
type tablePop map[string]struct {
	flat selector.Attributes
	gen  uint64
}

func (p tablePop) lookup(id string) (selector.Attributes, uint64, bool) {
	e, ok := p[id]
	if !ok {
		return nil, 0, false
	}
	return e.flat, e.gen, true
}

func (p tablePop) set(id string, gen uint64, flat selector.Attributes) {
	p[id] = struct {
		flat selector.Attributes
		gen  uint64
	}{flat, gen}
}

// matchIDs runs sel against the shard and returns the sorted result.
func matchIDs(t *testing.T, s *Shard, pop tablePop, src string) []string {
	t.Helper()
	sel := selector.MustCompile(src)
	plan := PlanSelector(sel)
	if !plan.Indexable() {
		t.Fatalf("plan for %q not indexable (MatchAll=%v FullScan=%v)", src, plan.MatchAll, plan.FullScan)
	}
	out := s.Match(plan, pop.lookup, nil)
	sort.Strings(out)
	return out
}

// bruteIDs evaluates sel against every profile in pop, sorted.
func bruteIDs(pop tablePop, src string) []string {
	sel := selector.MustCompile(src)
	var out []string
	for id, e := range pop {
		if sel.Matches(e.flat) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func eq(a, b []string) bool {
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

func testPop() tablePop {
	pop := make(tablePop)
	medias := []string{"video", "audio", "image", "text"}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("w%d", i)
		flat := selector.Attributes{
			"client": selector.S(id),
			"media":  selector.S(medias[i%len(medias)]),
			"region": selector.N(float64(i % 8)),
			"size":   selector.N(float64(i * 1000)),
		}
		if i%2 == 0 {
			flat["cap.display"] = selector.B(true)
		}
		if i%5 == 0 {
			flat["codec"] = selector.S("h264")
		}
		pop.set(id, 1, flat)
	}
	return pop
}

func syncShard(s *Shard, pop tablePop) {
	for id := range pop {
		s.MarkDirty(id)
	}
}

func TestShardMatchBasics(t *testing.T) {
	pop := testPop()
	s := NewShard()
	syncShard(s, pop)

	for _, src := range []string{
		`media == "video"`,
		`media == "video" and region == 3`,
		`media != "video"`,
		`region >= 6`,
		`size < 5000`,
		`size <= 5000 and media == "audio"`,
		`exists(cap.display)`,
		`media in ["audio", "text"]`,
		`media == "video" or region == 2`,
		`media == "video" and region == 3 and size > 10000`,
		`exists(codec) and cap.display == true`,
		`media == "nope"`,
		`region > 100`,
	} {
		got := matchIDs(t, s, pop, src)
		want := bruteIDs(pop, src)
		if !eq(got, want) {
			t.Errorf("%q: index %v, brute %v", src, got, want)
		}
	}
}

func TestShardResidueVerification(t *testing.T) {
	pop := testPop()
	s := NewShard()
	syncShard(s, pop)

	// like and not are non-indexable: they ride as residue on the
	// indexable region predicate and are verified per candidate.
	for _, src := range []string{
		`region == 3 and client like "w1*"`,
		`region == 3 and not media == "video"`,
		`region == 2 and (media == "video" or media == "audio")`,
	} {
		got := matchIDs(t, s, pop, src)
		want := bruteIDs(pop, src)
		if !eq(got, want) {
			t.Errorf("%q: index %v, brute %v", src, got, want)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	cases := []struct {
		src                string
		matchAll, fullScan bool
		branches           int
	}{
		{`true`, true, false, 0},
		{`false`, false, false, 0},
		{`a == 1`, false, false, 1},
		{`a == 1 or b == 2`, false, false, 2},
		{`a == 1 and false`, false, false, 0},
		{`a == 1 or true`, true, false, 1},
		{`not a == 1`, false, true, 0},
		{`a like "x*"`, false, true, 0},
		{`a == 1 or b like "x*"`, false, true, 1},
		{`a == 1 and b like "x*"`, false, false, 1},
		{`a < "m"`, false, true, 0},   // ordered string: residue-only branch
		{`a < true`, false, false, 0}, // ordering a bool never matches
		{`a == 1 and a < true`, false, false, 0},
	}
	for _, c := range cases {
		p := PlanSelector(selector.MustCompile(c.src))
		if p.MatchAll != c.matchAll || p.FullScan != c.fullScan || len(p.Branches) != c.branches {
			t.Errorf("%q: got MatchAll=%v FullScan=%v branches=%d, want %v/%v/%d",
				c.src, p.MatchAll, p.FullScan, len(p.Branches), c.matchAll, c.fullScan, c.branches)
		}
	}
}

func TestPlanEmptyInListNeverMatches(t *testing.T) {
	// The parser rejects `a in []`, but FromExpr-built selectors can
	// carry an empty list; it satisfies no profile.
	p := PlanSelector(selector.FromExpr(&selector.In{Attr: "a"}))
	if p.MatchAll || p.FullScan || len(p.Branches) != 0 {
		t.Fatalf("empty in-list plan = %+v, want constant false", p)
	}
}

func TestPlanNaNLiteralFallsBack(t *testing.T) {
	e := &selector.Cmp{Attr: "a", Op: selector.OpEq, Lit: selector.N(math.NaN())}
	p := PlanSelector(selector.FromExpr(e))
	if !p.FullScan {
		t.Fatalf("NaN equality literal must degrade to FullScan, got %+v", p)
	}
}

// TestPlanKeptOnSelector: a selector is planned once, on its first
// PlanSelector, and every later call returns that plan without
// allocating.
func TestPlanKeptOnSelector(t *testing.T) {
	sel := selector.MustCompile(`media == "image" and size > 2000`)
	p := PlanSelector(sel)
	if q := PlanSelector(sel); q != p {
		t.Fatalf("second PlanSelector returned plan %p, first %p", q, p)
	}
	if allocs := testing.AllocsPerRun(100, func() { PlanSelector(sel) }); allocs != 0 {
		t.Fatalf("warm PlanSelector allocates %v times, want 0", allocs)
	}
}

// TestPlanFirstCallsAgree: goroutines making a selector's first
// PlanSelector at once may each plan it, but all of them get the one
// plan the selector keeps.
func TestPlanFirstCallsAgree(t *testing.T) {
	sel := selector.MustCompile(`region in [1, 3] or client == "w7"`)
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [8]*Plan
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = PlanSelector(sel)
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got plan %p, goroutine 0 %p", i, p, got[0])
		}
	}
	if PlanSelector(sel) != got[0] {
		t.Fatal("the selector keeps a plan no first caller got")
	}
}

func TestNaNAttributeRangeSemantics(t *testing.T) {
	// Eval: Compare(NaN, x) reports 0, so a NaN-valued attribute
	// satisfies <= and >= against any literal but never < or >.
	pop := make(tablePop)
	pop.set("nan", 1, selector.Attributes{"v": selector.N(math.NaN())})
	pop.set("low", 1, selector.Attributes{"v": selector.N(1)})
	pop.set("high", 1, selector.Attributes{"v": selector.N(9)})
	s := NewShard()
	syncShard(s, pop)

	for _, src := range []string{`v <= 5`, `v >= 5`, `v < 5`, `v > 5`, `v == 1`, `v != 1`} {
		got := matchIDs(t, s, pop, src)
		want := bruteIDs(pop, src)
		if !eq(got, want) {
			t.Errorf("%q: index %v, brute %v", src, got, want)
		}
	}
}

func TestGenerationSkipAndReindex(t *testing.T) {
	pop := make(tablePop)
	pop.set("a", 1, selector.Attributes{"media": selector.S("video")})
	s := NewShard()
	s.MarkDirty("a")

	if got := matchIDs(t, s, pop, `media == "video"`); !eq(got, []string{"a"}) {
		t.Fatalf("initial index: %v", got)
	}

	// Dirty with an unchanged generation: the flattened view must be
	// presumed fresh and the postings kept.
	before := ctrReindex.Load()
	s.MarkDirty("a")
	if got := matchIDs(t, s, pop, `media == "video"`); !eq(got, []string{"a"}) {
		t.Fatalf("after no-op dirty: %v", got)
	}
	if n := ctrReindex.Load() - before; n != 0 {
		t.Errorf("unchanged generation caused %d reindexes", n)
	}

	// A generation bump must reindex: the old posting disappears, the
	// new one answers.
	pop.set("a", 2, selector.Attributes{"media": selector.S("audio")})
	s.MarkDirty("a")
	if got := matchIDs(t, s, pop, `media == "video"`); len(got) != 0 {
		t.Fatalf("stale posting survived reindex: %v", got)
	}
	if got := matchIDs(t, s, pop, `media == "audio"`); !eq(got, []string{"a"}) {
		t.Fatalf("new posting missing: %v", got)
	}
	if n := ctrReindex.Load() - before; n != 1 {
		t.Errorf("generation bump caused %d reindexes, want 1", n)
	}
}

func TestInvalidateForcesReindexOnSameGeneration(t *testing.T) {
	// A wholesale Put may install different attributes under an
	// unchanged version; Invalidate must not trust the generation.
	pop := make(tablePop)
	pop.set("a", 0, selector.Attributes{"media": selector.S("video")})
	s := NewShard()
	s.MarkDirty("a")
	if got := matchIDs(t, s, pop, `media == "video"`); !eq(got, []string{"a"}) {
		t.Fatalf("initial: %v", got)
	}

	pop.set("a", 0, selector.Attributes{"media": selector.S("audio")})
	s.Invalidate("a")
	if got := matchIDs(t, s, pop, `media == "video"`); len(got) != 0 {
		t.Fatalf("stale posting after Invalidate: %v", got)
	}
	if got := matchIDs(t, s, pop, `media == "audio"`); !eq(got, []string{"a"}) {
		t.Fatalf("reindexed posting missing: %v", got)
	}
}

func TestRemovalDropsPostings(t *testing.T) {
	pop := testPop()
	s := NewShard()
	syncShard(s, pop)
	if got := matchIDs(t, s, pop, `media == "video"`); len(got) == 0 {
		t.Fatal("no initial matches")
	}

	delete(pop, "w0")
	s.Invalidate("w0")
	got := matchIDs(t, s, pop, `media == "video"`)
	for _, id := range got {
		if id == "w0" {
			t.Fatal("departed client still matched")
		}
	}
	if len(s.clients) != len(pop) {
		t.Errorf("%d indexed clients, want %d", len(s.clients), len(pop))
	}
}

func TestCandidateCounter(t *testing.T) {
	pop := testPop()
	s := NewShard()
	syncShard(s, pop)
	before := ctrCandidates.Load()
	got := matchIDs(t, s, pop, `media == "video" and region == 0`)
	scanned := ctrCandidates.Load() - before
	if scanned == 0 {
		t.Fatal("no candidates counted")
	}
	// The counting match may scan more candidates than survive, but
	// never fewer, and for a selective conjunction it must scan far
	// fewer than the population.
	if scanned < uint64(len(got)) {
		t.Errorf("scanned %d < matched %d", scanned, len(got))
	}
	if scanned > uint64(len(pop))/2 {
		t.Errorf("scanned %d of %d: counting match did not prune", scanned, len(pop))
	}
}
