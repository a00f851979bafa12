package inference

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

func st(pairs ...any) selector.Attributes {
	a := make(selector.Attributes)
	for i := 0; i < len(pairs); i += 2 {
		switch v := pairs[i+1].(type) {
		case int:
			a[pairs[i].(string)] = selector.N(float64(v))
		case float64:
			a[pairs[i].(string)] = selector.N(v)
		}
	}
	return a
}

func TestPacketsFromPageFaults(t *testing.T) {
	// The paper's Fig 6: packets 1..16 in powers of 2 for page faults
	// 30..100.
	cases := []struct {
		pf   float64
		want int
	}{
		{0, 16}, {30, 16}, {100, 1}, {150, 1},
	}
	for _, tc := range cases {
		if got := (Params{MaxPackets: 16}).PacketsFromPageFaults(tc.pf); got != tc.want {
			t.Errorf("PacketsFromPageFaults(%g) = %d, want %d", tc.pf, got, tc.want)
		}
	}
	// Every output is a power of two in [1, 16] and non-increasing.
	prev := 17
	seen := map[int]bool{}
	for pf := 0.0; pf <= 120; pf += 1 {
		got := (Params{MaxPackets: 16}).PacketsFromPageFaults(pf)
		if got < 1 || got > 16 || got&(got-1) != 0 {
			t.Fatalf("pf=%g: %d not a power of two in range", pf, got)
		}
		if got > prev {
			t.Fatalf("pf=%g: budget increased %d -> %d", pf, prev, got)
		}
		prev = got
		seen[got] = true
	}
	// The full ladder 16, 8, 4, 2, 1 appears across the sweep.
	for _, want := range []int{16, 8, 4, 2, 1} {
		if !seen[want] {
			t.Errorf("budget %d never produced across sweep", want)
		}
	}
	// Default maxPackets.
	if (Params{MaxPackets: 0}).PacketsFromPageFaults(0) != 16 {
		t.Error("default maxPackets should be 16")
	}
}

func TestPacketsFromCPULoad(t *testing.T) {
	// Fig 7: 16 packets at <=30 %, 0 at 100 %.
	if got := (Params{MaxPackets: 16}).PacketsFromCPULoad(30); got != 16 {
		t.Errorf("cpu 30 = %d", got)
	}
	if got := (Params{MaxPackets: 16}).PacketsFromCPULoad(100); got != 0 {
		t.Errorf("cpu 100 = %d", got)
	}
	if got := (Params{MaxPackets: 16}).PacketsFromCPULoad(120); got != 0 {
		t.Errorf("cpu 120 = %d", got)
	}
	prev := 17
	for load := 0.0; load <= 110; load += 0.5 {
		got := (Params{MaxPackets: 16}).PacketsFromCPULoad(load)
		if got < 0 || got > 16 {
			t.Fatalf("cpu %g: budget %d out of range", load, got)
		}
		if got > prev {
			t.Fatalf("cpu %g: budget increased %d -> %d", load, prev, got)
		}
		prev = got
	}
}

func TestDecisionComposition(t *testing.T) {
	d := Decision{PacketBudget: Unlimited}
	if d.EffectiveBudget(16) != 16 {
		t.Error("unlimited effective budget")
	}
	d.constrain(8)
	d.constrain(12) // higher: keeps 8
	if d.PacketBudget != 8 {
		t.Errorf("budget = %d, want 8", d.PacketBudget)
	}
	d.constrain(-3) // clamps to 0
	if d.PacketBudget != 0 {
		t.Errorf("budget = %d, want 0", d.PacketBudget)
	}
	d.PacketBudget = 100
	if d.EffectiveBudget(16) != 16 {
		t.Error("budget above total must clamp")
	}
}

func TestEngineDefaultPolicy(t *testing.T) {
	contract := profile.MustContract("qos",
		profile.Constraint{Param: StateCPULoad, Min: 0, Max: 90, Hard: true})
	e := New("", contract, clock.Wall)
	if New("", nil, clock.Wall).contract == nil {
		t.Error("nil contract should default to empty contract")
	}

	// Light load: everything passes.
	d := e.Decide(st(StateCPULoad, 20, StatePageFaults, 10, StateBandwidth, 1e6))
	if d.EffectiveBudget(16) != 16 || d.Modality != "" {
		t.Errorf("light load: %+v", d)
	}
	if !d.Contract.Satisfied {
		t.Error("light-load contract should hold")
	}
	if len(d.Fired) != 2 {
		t.Errorf("fired: %v", d.Fired)
	}

	// Page-fault pressure halves the budget even when CPU is fine.
	d = e.Decide(st(StateCPULoad, 20, StatePageFaults, 65))
	if got := d.EffectiveBudget(16); got >= 16 || got < 1 {
		t.Errorf("page-fault pressure budget = %d", got)
	}

	// The tighter of the two constraints governs.
	d = e.Decide(st(StateCPULoad, 99, StatePageFaults, 35))
	cpuOnly := (Params{MaxPackets: 16}).PacketsFromCPULoad(99)
	if d.EffectiveBudget(16) != cpuOnly {
		t.Errorf("min composition: %d, want %d", d.EffectiveBudget(16), cpuOnly)
	}

	// Saturated CPU: accept nothing, contract violated.
	d = e.Decide(st(StateCPULoad, 100))
	if d.EffectiveBudget(16) != 0 {
		t.Errorf("full load budget = %d", d.EffectiveBudget(16))
	}
	if d.Contract.Satisfied {
		t.Error("contract must be violated at 100% load")
	}

	// Bandwidth tiers.
	d = e.Decide(st(StateBandwidth, 50_000))
	if d.Modality != media.KindSketch {
		t.Errorf("50 kbps modality = %q", d.Modality)
	}
	d = e.Decide(st(StateBandwidth, 10_000))
	if d.Modality != media.KindText {
		t.Errorf("10 kbps modality = %q", d.Modality)
	}
	d = e.Decide(st(StateBandwidth, 1e6))
	if d.Modality != "" {
		t.Errorf("high-bandwidth modality = %q", d.Modality)
	}
}

// TestQuickBudgetMonotone: both paper mappings are monotone
// non-increasing in their driving parameter, for any maxPackets.
func TestQuickBudgetMonotone(t *testing.T) {
	f := func(a, b float64, maxPackets int) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		a = math.Mod(math.Abs(a), 200)
		b = math.Mod(math.Abs(b), 200)
		if a > b {
			a, b = b, a
		}
		maxPackets = maxPackets%64 + 1
		if maxPackets < 1 {
			maxPackets = 1
		}
		return (Params{MaxPackets: maxPackets}).PacketsFromPageFaults(a) >= (Params{MaxPackets: maxPackets}).PacketsFromPageFaults(b) &&
			(Params{MaxPackets: maxPackets}).PacketsFromCPULoad(a) >= (Params{MaxPackets: maxPackets}).PacketsFromCPULoad(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecideDeterministic: identical state yields identical
// decisions.
func TestQuickDecideDeterministic(t *testing.T) {
	e := New("", nil, clock.Wall)
	f := func(cpu, pf, bw float64) bool {
		if math.IsNaN(cpu) || math.IsNaN(pf) || math.IsNaN(bw) {
			return true
		}
		state := st(StateCPULoad, math.Mod(math.Abs(cpu), 150),
			StatePageFaults, math.Mod(math.Abs(pf), 150),
			StateBandwidth, math.Mod(math.Abs(bw), 1e7))
		d1 := e.Decide(state)
		d2 := e.Decide(state)
		return d1.PacketBudget == d2.PacketBudget && d1.Modality == d2.Modality &&
			len(d1.Fired) == len(d2.Fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMappingsWithinMaxPackets: every mapping stays in
// [0, MaxPackets] for every MaxPackets in 1..64 — the Fig 6 ladder of
// a MaxPackets that is no power of two must not round up past it.
func TestQuickMappingsWithinMaxPackets(t *testing.T) {
	f := func(x float64) bool {
		for m := 1; m <= 64; m++ {
			p := Params{MaxPackets: m}
			for _, in := range []float64{x, math.Mod(math.Abs(x), 120), math.Mod(math.Abs(x), 1.2), math.Inf(-1)} {
				for _, n := range []int{p.PacketsFromPageFaults(in), p.PacketsFromCPULoad(in), p.PacketsFromLoss(in)} {
					if n < 0 || n > m {
						t.Logf("MaxPackets %d, input %g: budget %d", m, in, n)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNaNIsUnobserved: a NaN state value fires no rule, through the
// policy and through the engine alike, so the key reads as absent.
func TestNaNIsUnobserved(t *testing.T) {
	e := New("", nil, clock.Wall)
	for _, key := range []string{StatePageFaults, StateCPULoad, StateLoss, StateBandwidth} {
		nan := st(StateCPULoad, 50, key, math.NaN())
		absent := st(StateCPULoad, 50)
		if key == StateCPULoad {
			absent = st()
		}
		want := Params{}.Decide(absent)
		for name, got := range map[string]Decision{"Params.Decide": Params{}.Decide(nan), "Engine.Decide": e.Decide(nan)} {
			got.Contract = profile.Evaluation{}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s with NaN %s = %+v, want %+v as if absent", name, key, got, want)
			}
		}
	}
}
