package experiments

import (
	"bytes"
	"math"
	"os"
	"testing"

	"adaptiveqos/internal/metrics"
)

// TestFig6Shape verifies the paper's Figure 6 shapes: as page faults
// rise 30→100, packets accepted fall 16→1 in powers of two, the
// compression ratio rises, and bits-per-pixel falls.
func TestFig6Shape(t *testing.T) {
	table, err := Fig6(8)
	if err != nil {
		t.Fatal(err)
	}
	packets := table.Series("packets")
	cr := table.Series("compression-ratio")
	bpp := table.Series("bpp")
	psnr := table.Series("psnr-db")

	if yAt(packets, 30) != 16 {
		t.Errorf("packets at 30 faults = %g, want 16", yAt(packets, 30))
	}
	if yAt(packets, 100) != 1 {
		t.Errorf("packets at 100 faults = %g, want 1", yAt(packets, 100))
	}
	for _, y := range packets.Y {
		n := int(y)
		if n < 1 || n&(n-1) != 0 {
			t.Errorf("packet count %d is not a power of two", n)
		}
	}
	if !nonIncreasing(packets, 0) {
		t.Errorf("packets not monotone: %v", packets.Y)
	}
	if !nonDecreasing(cr, 1e-9) {
		t.Errorf("compression ratio not rising: %v", cr.Y)
	}
	if !nonIncreasing(bpp, 1e-9) {
		t.Errorf("BPP not falling: %v", bpp.Y)
	}
	if !nonIncreasing(psnr, 0.6) {
		t.Errorf("PSNR should fall with fewer packets: %v", psnr.Y)
	}
	// The dynamic range is wide, as in the paper (3.6→131 there).
	if cr.Y[len(cr.Y)-1] < 4*cr.Y[0] {
		t.Errorf("compression ratio range too narrow: %g → %g", cr.Y[0], cr.Y[len(cr.Y)-1])
	}
}

// TestFig7Shape verifies Figure 7: CPU load 30→100 % drives packets
// 16→0 with the same inverse CR / direct BPP relationships.
func TestFig7Shape(t *testing.T) {
	table, err := Fig7(8)
	if err != nil {
		t.Fatal(err)
	}
	packets := table.Series("packets")
	cr := table.Series("compression-ratio")
	bpp := table.Series("bpp")

	if yAt(packets, 30) != 16 {
		t.Errorf("packets at 30%% = %g, want 16", yAt(packets, 30))
	}
	if yAt(packets, 100) != 0 {
		t.Errorf("packets at 100%% = %g, want 0 (paper: drop to 0)", yAt(packets, 100))
	}
	if !nonIncreasing(packets, 0) {
		t.Errorf("packets not monotone: %v", packets.Y)
	}
	if !nonIncreasing(bpp, 1e-9) {
		t.Errorf("BPP not falling: %v", bpp.Y)
	}
	if !nonDecreasing(cr, 1e-9) {
		t.Errorf("CR not rising: %v", cr.Y)
	}
	// At zero packets the compression ratio diverges (nothing accepted).
	if !math.IsInf(yAt(cr, 100), 1) {
		t.Errorf("CR at 100%% load = %g, want +Inf", yAt(cr, 100))
	}
}

// TestFig8Shape verifies Figure 8: as client A closes from 100 m to
// 50 m its SIR improves and B's degrades; the trend reverses on the
// way back out.  The BS tier for A follows its SIR.
func TestFig8Shape(t *testing.T) {
	table, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	sirA := table.Series("sir-A-db")
	sirB := table.Series("sir-B-db")
	if len(sirA.Y) != 6 {
		t.Fatalf("steps = %d", len(sirA.Y))
	}
	// Approach phase (0→3): A rises, B falls.
	for s := 1; s <= 3; s++ {
		if sirA.Y[s] <= sirA.Y[s-1] {
			t.Errorf("step %d: A's SIR should rise while closing (%.2f -> %.2f)",
				s, sirA.Y[s-1], sirA.Y[s])
		}
		if sirB.Y[s] >= sirB.Y[s-1] {
			t.Errorf("step %d: B's SIR should fall while A closes (%.2f -> %.2f)",
				s, sirB.Y[s-1], sirB.Y[s])
		}
	}
	// Retreat phase (3→5): reversed.
	for s := 4; s <= 5; s++ {
		if sirA.Y[s] >= sirA.Y[s-1] {
			t.Errorf("step %d: A's SIR should fall while retreating", s)
		}
		if sirB.Y[s] <= sirB.Y[s-1] {
			t.Errorf("step %d: B's SIR should recover while A retreats", s)
		}
	}
	// Tier tracks SIR.
	tierA := table.Series("tier-A")
	if tierA.Y[3] < tierA.Y[0] {
		t.Errorf("A's tier at closest approach (%g) below start (%g)", tierA.Y[3], tierA.Y[0])
	}
}

// TestFig9Shape verifies Figure 9: raising A's power improves A's SIR
// and hurts B's, and (the paper's observation) a distance change is
// more effective than a comparable power change.
func TestFig9Shape(t *testing.T) {
	table, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	sirA := table.Series("sir-A-db")
	sirB := table.Series("sir-B-db")
	for s := 1; s < len(sirA.Y); s++ {
		if sirA.Y[s] <= sirA.Y[s-1] {
			t.Errorf("step %d: A's SIR should rise with power", s)
		}
		if sirB.Y[s] >= sirB.Y[s-1] {
			t.Errorf("step %d: B's SIR should fall as A gets louder", s)
		}
	}

	// Distance beats power (the paper's observation), compared fairly
	// per factor of two: halving distance yields ~α·3 dB (α = 3 here)
	// while doubling power yields at most 3 dB.
	fig8, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	distPerHalving := fig8.Series("sir-A-db").Y[3] - fig8.Series("sir-A-db").Y[0] // 100→50 m
	// The power sweep multiplies by 1.6 per step; rescale one step's
	// gain to a per-doubling basis.
	powerPerDoubling := (sirA.Y[1] - sirA.Y[0]) * (math.Log(2) / math.Log(1.6))
	if distPerHalving <= powerPerDoubling {
		t.Errorf("distance gain %.2f dB/halving should exceed power gain %.2f dB/doubling",
			distPerHalving, powerPerDoubling)
	}
}

// TestFig10Shape verifies Figure 10: every join degrades the existing
// clients' SIR; the first join causes a large relative drop and the
// second a smaller one (paper: ~90 % then ~23 %); a session-size limit
// exists.
func TestFig10Shape(t *testing.T) {
	res, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	sirA := res.Table.Series("sir-A-db")
	if sirA.Y[1] >= sirA.Y[0] {
		t.Errorf("A's SIR should drop when client 2 joins: %.2f -> %.2f", sirA.Y[0], sirA.Y[1])
	}
	if sirA.Y[2] >= sirA.Y[1] {
		t.Errorf("A's SIR should drop when client 3 joins: %.2f -> %.2f", sirA.Y[1], sirA.Y[2])
	}
	if res.DropOnSecondJoin < 0.80 || res.DropOnSecondJoin > 0.97 {
		t.Errorf("first-join drop = %.0f%%, paper reports ~90%%", res.DropOnSecondJoin*100)
	}
	if res.DropOnThirdJoin < 0.15 || res.DropOnThirdJoin > 0.35 {
		t.Errorf("second drop = %.0f%%, paper reports ~23%%", res.DropOnThirdJoin*100)
	}
	if res.DropOnThirdJoin >= res.DropOnSecondJoin {
		t.Errorf("second drop (%.0f%%) should be smaller than first (%.0f%%)",
			res.DropOnThirdJoin*100, res.DropOnSecondJoin*100)
	}
	if res.AdmissionLimit < 1 {
		t.Errorf("admission limit = %d", res.AdmissionLimit)
	}
	// Tier degradation appears in the table.
	tierA := res.Table.Series("tier-A")
	if tierA.Y[2] >= tierA.Y[0] {
		t.Errorf("A's tier should degrade as the cell fills: %v", tierA.Y)
	}
}

// TestTablesRender smoke-tests that every figure renders a non-empty
// table (the qosbench output path).
func TestTablesRender(t *testing.T) {
	for name, run := range map[string]func() (string, error){
		"fig6": func() (string, error) { tb, err := Fig6(4); return render(tb, err) },
		"fig7": func() (string, error) { tb, err := Fig7(4); return render(tb, err) },
		"fig8": func() (string, error) { tb, err := Fig8(); return render(tb, err) },
		"fig9": func() (string, error) { tb, err := Fig9(); return render(tb, err) },
		"fig10": func() (string, error) {
			res, err := Fig10()
			if err != nil {
				return "", err
			}
			return res.Table.String(), nil
		},
	} {
		out, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) < 50 {
			t.Errorf("%s: output too small: %q", name, out)
		}
	}
}

func render(tb interface{ String() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return tb.String(), nil
}

// yAt returns s's y value for the first sample at x (NaN if absent).
func yAt(s *metrics.Series, x float64) float64 {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i]
		}
	}
	return math.NaN()
}

// nonIncreasing reports whether y never rises along s (within eps) —
// the shape check for the Fig 6/7 curves.
func nonIncreasing(s *metrics.Series, eps float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]+eps {
			return false
		}
	}
	return true
}

// nonDecreasing reports whether y never falls along s (within eps).
func nonDecreasing(s *metrics.Series, eps float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]-eps {
			return false
		}
	}
	return true
}

// TestFiguresGolden pins every figure, as `qosbench -exp all` prints
// it, byte for byte to testdata/figures.golden: the sweeps run the real
// host → SNMP → inference → wavelet pipeline, so a change that moves
// any decision or coded byte shows here.  Regenerate, when a figure is
// meant to move, with
//
//	go run ./cmd/qosbench -exp all > internal/experiments/testdata/figures.golden
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for i, name := range []string{"fig6", "fig7", "fig8", "fig9", "fig10"} {
		if i > 0 {
			got.WriteByte('\n')
		}
		if err := Write(&got, name, 8, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figures moved from testdata/figures.golden; now:\n%s", got.String())
	}
}
