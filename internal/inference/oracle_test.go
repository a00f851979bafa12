package inference

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// The rule-database engine Params.Decide replaced, kept as an oracle:
// selector-guarded closures sorted by priority, installed with the
// standard six rules.  The decision logic is the old code's, verbatim
// but for the names; its per-rule counters and audit are left out (the
// audit tests cover Engine.Decide's).

type oracleRule struct {
	Name     string
	When     *selector.Selector
	Then     func(state selector.Attributes, d *Decision)
	Priority int
}

type oracleEngine struct {
	rules    []oracleRule
	seq      int
	order    []int
	contract *profile.Contract
}

func oracleConstrainPackets(d *Decision, n int) {
	if n < 0 {
		n = 0
	}
	if d.PacketBudget == Unlimited || n < d.PacketBudget {
		d.PacketBudget = n
	}
}

func (e *oracleEngine) addRule(r oracleRule) {
	e.rules = append(e.rules, r)
	e.order = append(e.order, e.seq)
	e.seq++
	idx := make([]int, len(e.rules))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if e.rules[idx[a]].Priority != e.rules[idx[b]].Priority {
			return e.rules[idx[a]].Priority > e.rules[idx[b]].Priority
		}
		return e.order[idx[a]] < e.order[idx[b]]
	})
	rules := make([]oracleRule, len(e.rules))
	order := make([]int, len(e.rules))
	for i, j := range idx {
		rules[i], order[i] = e.rules[j], e.order[j]
	}
	e.rules, e.order = rules, order
}

func (e *oracleEngine) Decide(state selector.Attributes) Decision {
	d := Decision{PacketBudget: Unlimited, Contract: e.contract.Evaluate(state)}
	for _, r := range e.rules {
		if r.When != nil && !r.When.Matches(state) {
			continue
		}
		r.Then(state, &d)
		d.Fired = append(d.Fired, r.Name)
	}
	return d
}

func oracleInstall(e *oracleEngine, p Params) {
	p = p.WithDefaults()
	rules := []oracleRule{
		{
			Name:     "page-fault-budget",
			When:     selector.MustCompile("exists(" + StatePageFaults + ")"),
			Priority: 10,
			Then: func(state selector.Attributes, d *Decision) {
				oracleConstrainPackets(d, p.PacketsFromPageFaults(state[StatePageFaults].Num()))
			},
		},
		{
			Name:     "cpu-load-budget",
			When:     selector.MustCompile("exists(" + StateCPULoad + ")"),
			Priority: 10,
			Then: func(state selector.Attributes, d *Decision) {
				oracleConstrainPackets(d, p.PacketsFromCPULoad(state[StateCPULoad].Num()))
			},
		},
		{
			Name:     "low-bandwidth-sketch",
			When:     selector.MustCompile(fmt.Sprintf("%s < %g", StateBandwidth, p.SketchBps)),
			Priority: 5,
			Then: func(state selector.Attributes, d *Decision) {
				if d.Modality == "" || d.Modality == media.KindImage {
					d.Modality = media.KindSketch
				}
			},
		},
		{
			Name:     "low-bandwidth-text",
			When:     selector.MustCompile(fmt.Sprintf("%s < %g", StateBandwidth, p.TextBps)),
			Priority: 4,
			Then: func(state selector.Attributes, d *Decision) {
				d.Modality = media.KindText
			},
		},
		{
			Name:     "loss-budget",
			When:     selector.MustCompile("exists(" + StateLoss + ")"),
			Priority: 9,
			Then: func(state selector.Attributes, d *Decision) {
				oracleConstrainPackets(d, p.PacketsFromLoss(state[StateLoss].Num()))
			},
		},
		{
			Name:     "heavy-loss-sketch",
			When:     selector.MustCompile(fmt.Sprintf("%s >= %g", StateLoss, p.HeavyLossSketch)),
			Priority: 3,
			Then: func(state selector.Attributes, d *Decision) {
				if d.Modality == "" || d.Modality == media.KindImage {
					d.Modality = media.KindSketch
				}
			},
		},
	}
	for _, r := range rules {
		e.addRule(r)
	}
}

// oracleState is a random policy input: each of the four keys is
// absent, a string, a bool, ±Inf, a threshold or its float neighbour,
// or a number in the key's range.  NaN is left out (the oracle's NaN
// handling is what TestNaNIsUnobserved changes).
type oracleState selector.Attributes

func (oracleState) Generate(r *rand.Rand, _ int) reflect.Value {
	thresholds := []float64{30, 100, 0.5, 16_000, 64_000}
	state := selector.Attributes{}
	for _, key := range []string{StatePageFaults, StateCPULoad, StateLoss, StateBandwidth} {
		switch r.Intn(9) {
		case 0: // absent
		case 1:
			state[key] = selector.S(fmt.Sprint(r.Intn(100)))
		case 2:
			state[key] = selector.B(r.Intn(2) == 0)
		case 3:
			state[key] = selector.N(math.Inf(1 - 2*r.Intn(2)))
		case 4:
			t := thresholds[r.Intn(len(thresholds))]
			state[key] = selector.N([]float64{t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1))}[r.Intn(3)])
		case 5:
			state[key] = selector.N(r.Float64()*1.4 - 0.2) // loss range
		case 6:
			state[key] = selector.N(r.Float64()*120 - 10) // page-fault and cpu range
		case 7:
			state[key] = selector.N(r.Float64() * 100_000) // bandwidth range
		default:
			state[key] = selector.N(math.Round(r.Float64() * 120))
		}
	}
	return reflect.ValueOf(oracleState(state))
}

// TestDecideMatchesRuleEngine: over random states the new Engine
// decides exactly as the rule database did — budget, modality, the
// rules fired and their order, and the contract evaluation.
func TestDecideMatchesRuleEngine(t *testing.T) {
	contract := profile.MustContract("oracle",
		profile.Constraint{Param: StateCPULoad, Min: 0, Max: 90, Hard: true},
		profile.Constraint{Param: StatePageFaults, Min: 0, Max: 95},
		profile.Constraint{Param: StateBandwidth, Min: 16_000, Max: math.Inf(1)},
	)
	oracle := &oracleEngine{contract: contract}
	oracleInstall(oracle, Params{})
	e := New("oracle", contract, clock.Wall)
	f := func(s oracleState) bool {
		state := selector.Attributes(s)
		want, got := oracle.Decide(state), e.Decide(state)
		if !reflect.DeepEqual(want, got) {
			t.Logf("state %s:\n  rule engine %+v\n  Decide      %+v", formatState(state), want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2500}); err != nil {
		t.Fatal(err)
	}
}
