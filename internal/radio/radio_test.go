package radio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newTestChannel(t *testing.T) *Channel {
	t.Helper()
	return NewChannel(Params{})
}

func TestJoinLeave(t *testing.T) {
	c := newTestChannel(t)
	if err := c.Join("a", 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Join("a", 50, 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate join: %v", err)
	}
	if err := c.Join("b", -1, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative distance: %v", err)
	}
	if err := c.Join("b", 10, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero power: %v", err)
	}
	c.Join("b", 80, 0.5)
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("ids = %v", ids)
	}
	if !c.Leave("a") || c.Leave("a") {
		t.Error("leave semantics")
	}
	if _, err := c.SIR("a"); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("SIR after leave: %v", err)
	}
	if _, err := c.Get("zzz"); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("Get unknown: %v", err)
	}
	if err := c.SetDistance("zzz", 10); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("SetDistance unknown: %v", err)
	}
	if err := c.SetPower("b", math.NaN()); !errors.Is(err, ErrBadParam) {
		t.Errorf("NaN power: %v", err)
	}
}

func TestGainFollowsPathLoss(t *testing.T) {
	c := NewChannel(Params{PathLossExponent: 2, RefGain: 1})
	c.Join("a", 10, 1)
	gain := func() float64 { return c.clients["a"].gain }
	g10 := gain()
	c.SetDistance("a", 20)
	g20 := gain()
	// α = 2: doubling distance quarters the gain.
	if math.Abs(g10/g20-4) > 1e-9 {
		t.Errorf("gain ratio = %g, want 4", g10/g20)
	}
	// MinDistance clamps.
	c.SetDistance("a", 0)
	g0 := gain()
	c.SetDistance("a", 1)
	g1 := gain()
	if g0 != g1 {
		t.Errorf("distance clamp: %g vs %g", g0, g1)
	}
}

func TestSingleClientSIRIsNoiseLimited(t *testing.T) {
	c := NewChannel(Params{PathLossExponent: 2, NoiseExp: 3})
	c.Join("a", 10, 1)
	// SIR = P·G / (P/10³) = G·10³ = (1/100)·1000 = 10 → 10 dB.
	sir, err := c.SIR("a")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sir-10) > 1e-9 {
		t.Errorf("single-client SIR = %g, want 10", sir)
	}
	db, _ := c.SIRdB("a")
	if math.Abs(db-10) > 1e-9 {
		t.Errorf("SIRdB = %g, want 10", db)
	}
}

func TestInterferenceDominates(t *testing.T) {
	c := newTestChannel(t)
	c.Join("a", 50, 1)
	alone, _ := c.SIR("a")

	c.Join("b", 50, 1)
	with1, _ := c.SIR("a")
	if with1 >= alone {
		t.Errorf("SIR did not drop with interferer: %g -> %g", alone, with1)
	}
	// The paper's Fig 10 shape: the first interferer causes a large
	// relative drop (~90 % there); an equal second interferer causes a
	// smaller relative drop.
	drop1 := (alone - with1) / alone
	c.Join("c", 50, 1)
	with2, _ := c.SIR("a")
	drop2 := (with1 - with2) / with1
	if drop1 < 0.5 {
		t.Errorf("first interferer drop = %.2f, want large", drop1)
	}
	if drop2 >= drop1 {
		t.Errorf("second drop %.2f should be smaller than first %.2f", drop2, drop1)
	}

	// Moving the interferer away helps the victim — the Fig 8 effect
	// (in the paper client A moves closer so its own SIR improves; the
	// mirror effect is that B's interference at A changes with B's
	// gain).
	c.Leave("c")
	c.SetDistance("b", 200)
	far, _ := c.SIR("a")
	if far <= with1 {
		t.Errorf("moving interferer away should raise SIR: %g -> %g", with1, far)
	}
}

func TestMovingCloserImprovesOwnSIR(t *testing.T) {
	// Fig 8: client A's distance is reduced 100 m → 50 m; A's SIR at
	// the BS improves (its gain rises while interference is unchanged).
	c := newTestChannel(t)
	c.Join("a", 100, 1)
	c.Join("b", 80, 1)
	before, _ := c.SIRdB("a")
	bBefore, _ := c.SIRdB("b")
	c.SetDistance("a", 50)
	after, _ := c.SIRdB("a")
	bAfter, _ := c.SIRdB("b")
	if after <= before {
		t.Errorf("A closer: SIR %g -> %g should rise", before, after)
	}
	// ... while B's SIR falls (A now interferes more strongly).
	if bAfter >= bBefore {
		t.Errorf("B's SIR %g -> %g should fall when A closes in", bBefore, bAfter)
	}
}

func TestPowerVsDistanceEffectiveness(t *testing.T) {
	// The paper observes varying distance is more effective than
	// varying power.  Halving distance (α=3) multiplies gain by 8;
	// doubling power only doubles the signal — and with
	// power-proportional noise the self-noise doubles too.
	c := NewChannel(Params{PathLossExponent: 3})
	c.Join("a", 100, 1)
	c.Join("b", 80, 1)
	base, _ := c.SIR("a")

	c.SetPower("a", 2)
	viaPower, _ := c.SIR("a")
	c.SetPower("a", 1)
	c.SetDistance("a", 50)
	viaDistance, _ := c.SIR("a")

	if viaPower <= base {
		t.Errorf("more power should not hurt: %g -> %g", base, viaPower)
	}
	gainPower := viaPower / base
	gainDistance := viaDistance / base
	if gainDistance <= gainPower {
		t.Errorf("distance gain %.2fx should beat power gain %.2fx", gainDistance, gainPower)
	}
}

func TestScaleInvariance(t *testing.T) {
	// With power-proportional noise (no floor), a uniform power
	// scale-down leaves every SIR unchanged.
	c := newTestChannel(t)
	c.Join("a", 100, 2)
	c.Join("b", 60, 1)
	c.Join("c", 150, 4)
	before := c.AllSIRdB()
	if err := c.ScaleAllPowers(0.5); err != nil {
		t.Fatal(err)
	}
	after := c.AllSIRdB()
	for id := range before {
		if math.Abs(before[id]-after[id]) > 1e-9 {
			t.Errorf("%s: SIR changed under uniform scaling: %g -> %g", id, before[id], after[id])
		}
	}
	// Powers really dropped.
	a, _ := c.Get("a")
	if a.Power != 1 {
		t.Errorf("power after scaling = %g", a.Power)
	}
	if err := c.ScaleAllPowers(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero factor: %v", err)
	}

	// With a noise floor the invariance breaks: scaling down lowers SIR.
	cf := NewChannel(Params{NoiseFloor: 1e-9})
	cf.Join("a", 100, 1)
	b1, _ := cf.SIR("a")
	cf.ScaleAllPowers(0.1)
	b2, _ := cf.SIR("a")
	if b2 >= b1 {
		t.Errorf("with a noise floor, scaling down should lower SIR: %g -> %g", b1, b2)
	}
}

func TestPowerControlConvergesTowardTarget(t *testing.T) {
	// An absolute noise floor gives the iteration a finite equilibrium
	// (with purely power-proportional noise the whole power vector just
	// scales down until it hits a clamp).
	c := NewChannel(Params{NoiseFloor: 1e-9})
	c.Join("a", 100, 5)
	c.Join("b", 60, 0.05)

	// For two clients in an interference-limited uplink the product of
	// SIRs is at most 1, so both targets must sit below 0 dB to be
	// jointly feasible.
	const target = -4.0 // dB
	for i := 0; i < 40; i++ {
		if _, err := c.PowerControlStep(target, 1e-6, 100); err != nil {
			t.Fatal(err)
		}
	}
	for id, db := range c.AllSIRdB() {
		if math.Abs(db-target) > 0.5 {
			t.Errorf("%s: SIR %g dB after control, want ~%g", id, db, target)
		}
	}
	// Clamping works.
	if _, err := c.PowerControlStep(0, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Errorf("bad clamp params: %v", err)
	}
}

func TestPowerControlConservesBattery(t *testing.T) {
	// A client far above target is asked to reduce power (the paper's
	// example: image threshold 4 dB, achieved 7 dB → transmit lower).
	c := NewChannel(Params{NoiseFloor: 1e-12})
	c.Join("a", 10, 5) // very close and loud: high SIR
	c.Join("b", 100, 1)
	dbBefore, _ := c.SIRdB("a")
	if dbBefore < 4 {
		t.Skip("geometry should give a high SIR")
	}
	before, _ := c.Get("a")
	c.PowerControlStep(4, 1e-6, 100)
	after, _ := c.Get("a")
	if after.Power >= before.Power {
		t.Errorf("over-target client power %g -> %g should fall", before.Power, after.Power)
	}
}

func TestTiers(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		db   float64
		want Tier
	}{
		{10, TierImage},
		{4, TierImage},
		{3.9, TierSketch},
		{0, TierSketch},
		{-0.1, TierText},
		{-6, TierText},
		{-10, TierNone},
	}
	for _, tc := range cases {
		if got := th.TierFor(tc.db); got != tc.want {
			t.Errorf("TierFor(%g) = %s, want %s", tc.db, got, tc.want)
		}
	}
	for _, tier := range []Tier{TierNone, TierText, TierSketch, TierImage, Tier(9)} {
		if tier.String() == "" {
			t.Errorf("empty name for tier %d", tier)
		}
	}
}

func TestUtility(t *testing.T) {
	c := newTestChannel(t)
	c.Join("a", 10, 1)
	u1, err := c.Utility("a", 80, 10_000)
	if err != nil || u1 <= 0 {
		t.Fatalf("utility: %g, %v", u1, err)
	}
	// Same SIR at lower power → higher utility (bits per joule).
	c.ScaleAllPowers(0.5)
	u2, _ := c.Utility("a", 80, 10_000)
	if u2 <= u1 {
		t.Errorf("utility after uniform scale-down: %g -> %g should rise", u1, u2)
	}
	if _, err := c.Utility("ghost", 80, 1); !errors.Is(err, ErrUnknownClient) {
		t.Errorf("unknown client: %v", err)
	}
	// Default frame bits path.
	if _, err := c.Utility("a", 0, 1); err != nil {
		t.Errorf("default frame bits: %v", err)
	}
}

func TestAdmissionLimit(t *testing.T) {
	c := newTestChannel(t)
	// Equal clients at 50 m, 1 W: compute the limit, then verify by
	// populating the channel.
	limit := c.AdmissionLimit(50, 1, 0 /* dB */)
	if limit < 1 {
		t.Fatalf("admission limit = %d", limit)
	}
	for i := 0; i < limit; i++ {
		c.Join(string(rune('a'+i)), 50, 1)
	}
	db, _ := c.SIRdB("a")
	if db < -0.01 {
		t.Errorf("SIR at the limit = %g dB, want >= 0", db)
	}
	c.Join("overflow", 50, 1)
	db, _ = c.SIRdB("a")
	if db >= 0 {
		t.Errorf("SIR beyond the limit = %g dB, want < 0", db)
	}
}

func TestSortedSIRs(t *testing.T) {
	c := newTestChannel(t)
	c.Join("far", 200, 1)
	c.Join("near", 20, 1)
	c.Join("mid", 80, 1)
	sorted := c.SortedSIRs()
	if len(sorted) != 3 || sorted[0].ID != "near" || sorted[2].ID != "far" {
		t.Errorf("sorted: %v", sorted)
	}
}

// TestQuickSIRScaleInvariance: for arbitrary client sets (no noise
// floor), uniform power scaling preserves every SIR.
func TestQuickSIRScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewChannel(Params{PathLossExponent: 2 + r.Float64()*2})
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			c.Join(string(rune('a'+i)), 5+r.Float64()*200, 0.1+r.Float64()*5)
		}
		before := c.AllSIRdB()
		factor := 0.1 + r.Float64()*3
		c.ScaleAllPowers(factor)
		after := c.AllSIRdB()
		for id := range before {
			if math.Abs(before[id]-after[id]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMoreInterferersNeverHelp: adding a client never raises an
// existing client's SIR.
func TestQuickMoreInterferersNeverHelp(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewChannel(Params{})
		c.Join("victim", 5+r.Float64()*200, 0.1+r.Float64()*5)
		prev, _ := c.SIR("victim")
		for i := 0; i < 1+r.Intn(5); i++ {
			c.Join(string(rune('a'+i)), 5+r.Float64()*200, 0.1+r.Float64()*5)
			cur, _ := c.SIR("victim")
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTierMonotone: higher SIR never yields a poorer tier.
func TestQuickTierMonotone(t *testing.T) {
	th := DefaultThresholds()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return th.TierFor(a) <= th.TierFor(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSIRBitIdenticalAcrossCalls: the interference sum runs over the
// members in ID order, so at distances whose gains do not add exactly
// a client's SIR is the same float on every call, in a channel joined
// in another order, and after members in the middle leave — and a call
// allocates nothing.
func TestSIRBitIdenticalAcrossCalls(t *testing.T) {
	const members = 48
	id := func(i int) string { return "m" + string(rune('A'+i/26)) + string(rune('a'+i%26)) }
	join := func(c *Channel, i int) {
		t.Helper()
		if err := c.Join(id(i), 17.3+1.7*float64(i), 0.1+0.013*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := newTestChannel(t), newTestChannel(t)
	for i := 0; i < members; i++ {
		join(a, i)
		join(b, members-1-i)
	}
	extra := []int{members, members + 1, members + 2}
	for _, i := range extra { // joined, then gone again: the order must survive
		join(b, i)
	}
	for _, i := range extra {
		if !b.Leave(id(i)) {
			t.Fatalf("%s was not a member", id(i))
		}
	}

	who := id(7)
	want, err := a.SIR(who)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 1000; call++ {
		c := a
		if call%2 == 1 {
			c = b
		}
		got, err := c.SIR(who)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: SIR %x, first call %x", call, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if n := testing.AllocsPerRun(100, func() { a.SIR(who) }); n != 0 {
		t.Errorf("SIR allocates %v times per call", n)
	}
}

// eq1 is the paper's eq. 1 for client id, computed straight from the
// channel's public state with math.Pow, summing the interference in ID
// order as the channel does.
func eq1(t *testing.T, c *Channel, id string) float64 {
	t.Helper()
	p := c.Params()
	gain := func(d float64) float64 {
		if d < p.MinDistance {
			d = p.MinDistance
		}
		return p.RefGain * math.Pow(d, -p.PathLossExponent)
	}
	me, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	var interference float64
	for _, other := range c.IDs() {
		if other != id {
			cl, _ := c.Get(other)
			interference += cl.Power * gain(cl.Distance)
		}
	}
	noise := p.NoiseFloor + me.Power/math.Pow(10, p.NoiseExp)
	return me.Power * gain(me.Distance) / (interference + noise)
}

// TestSIRMatchesEquationBitForBit: the gains cached at each geometry
// change give every SIR the bits eq. 1 computed afresh gives, over
// random cells and after every kind of change to them.
func TestSIRMatchesEquationBitForBit(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		params := Params{PathLossExponent: 2 + 2*r.Float64(), RefGain: 0.5 + r.Float64(), NoiseExp: 5 + 7*r.Float64()}
		if r.Intn(2) == 0 {
			params.NoiseFloor = 1e-12 * r.Float64()
			params.MinDistance = 0.5 + 5*r.Float64()
		}
		c := NewChannel(params)
		ids := make([]string, 2+r.Intn(40))
		for i := range ids {
			ids[i] = fmt.Sprintf("c%02d", i)
			if err := c.Join(ids[i], 300*r.Float64(), 0.01+2*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 40; step++ {
			id := ids[r.Intn(len(ids))]
			switch r.Intn(5) {
			case 0:
				c.SetDistance(id, 300*r.Float64())
			case 1:
				c.SetPower(id, 0.01+2*r.Float64())
			case 2:
				c.ScaleAllPowers(0.2 + 2*r.Float64())
			case 3:
				if c.Len() > 1 {
					c.Leave(id)
				}
			case 4:
				c.Join(id, 300*r.Float64(), 0.01+2*r.Float64())
			}
			for _, id := range c.IDs() {
				got, err := c.SIR(id)
				if err != nil {
					t.Fatal(err)
				}
				if want := eq1(t, c, id); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: SIR(%s) = %x, eq. 1 gives %x", seed, step, id, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestMoveWhileReadingSIR: the control plane moves members while the
// dispatch workers read their SIRs; under -race this is where a gain
// written outside the lock would show.
func TestMoveWhileReadingSIR(t *testing.T) {
	c := newTestChannel(t)
	const members = 16
	for i := 0; i < members; i++ {
		c.Join(fmt.Sprint("m", i), 20+10*float64(i), 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2000; k++ {
				id := fmt.Sprint("m", (w+k)%members)
				if w == 0 {
					c.SetDistance(id, 5+float64(k%300))
				} else if db, err := c.SIRdB(id); err != nil || math.IsNaN(db) {
					t.Errorf("SIRdB(%s) = %g, %v", id, db, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, id := range c.IDs() {
		if got, _ := c.SIR(id); math.Float64bits(got) != math.Float64bits(eq1(t, c, id)) {
			t.Errorf("SIR(%s) after the moves is not eq. 1's", id)
		}
	}
}
