package replay

import (
	"bytes"
	"testing"
	"time"

	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/transport/transporttest"
)

// syntheticWorkload builds a 3-client session: alice and bob publish
// an event every 25ms for 3 simulated seconds (plus a two-level data
// burst every 4th event), carol only listens; the recorded mean loss
// is lossFrac.
func syntheticWorkload(lossFrac float64) *Workload {
	w := &Workload{
		StartNS:   1_000_000_000,
		Senders:   []string{"alice", "bob"},
		Receivers: []string{"alice", "bob", "carol"},
		Host:      map[string][]HostSample{},
		MeanLoss:  lossFrac,
	}
	var seq = map[string]uint64{}
	for i := 0; i < 120; i++ {
		at := w.StartNS + int64(i)*25_000_000
		for _, sender := range w.Senders {
			seq[sender]++
			w.Publishes = append(w.Publishes, Publish{
				AtNS: at, Sender: sender, Seq: seq[sender],
				Kind: "event", Size: 128,
			})
			if i%4 == 0 {
				for lvl := 0; lvl < 2; lvl++ {
					seq[sender]++
					w.Publishes = append(w.Publishes, Publish{
						AtNS: at + 1_000_000, Sender: sender, Seq: seq[sender],
						Kind: "data", Modality: "image", Level: lvl, Size: 1024,
					})
				}
			}
		}
		w.EndNS = at + 2_000_000
	}
	// A wireless client's SIR trace straddling the sketch/image bands.
	for i := 0; i < 30; i++ {
		w.SIR = append(w.SIR, SIRSample{
			AtNS: w.StartNS + int64(i)*100_000_000, Client: "w0",
			SIRdB: []float64{-2, 1, 3, 5, 7}[i%5],
		})
	}
	return w
}

func TestSimulateLosslessDeliversEverything(t *testing.T) {
	w := syntheticWorkload(0)
	out := Simulate(w, Policy{}, SimConfig{Loss: 0})
	if out.Sent != out.Offered {
		t.Errorf("sent = %d, offered = %d (default budget must pass everything)", out.Sent, out.Offered)
	}
	if out.Delivered != out.Expected || out.Expected == 0 {
		t.Errorf("delivered = %d, expected = %d", out.Delivered, out.Expected)
	}
	if out.LossFrac != 0 || out.RepairRequests != 0 {
		t.Errorf("lossFrac = %v, requests = %d on a clean network", out.LossFrac, out.RepairRequests)
	}
	if out.DeliveryP99 <= 0 || out.DeliveryP99 > 50*time.Millisecond {
		t.Errorf("delivery p99 = %v, want ~link delay", out.DeliveryP99)
	}
}

func TestSimulateRepairRecoversLoss(t *testing.T) {
	w := syntheticWorkload(0.35)
	cfg := SimConfig{Seed: 7, Loss: 0.35}
	// The real kernels on the virtual clock, under the frame-integrity
	// harness: parked views, archived frames and replays all alias the
	// datagrams the simulated senders gave.
	frames := transporttest.Watch(t)
	off := simulate(w, Policy{Repair: RepairPolicy{Enabled: false}}, cfg, frames.Observe)
	on := simulate(w, Policy{
		Repair: RepairPolicy{Enabled: true, StallTimeoutMS: 100, MaxRetries: 6},
	}, cfg, frames.Observe)
	if frames.Frames() == 0 {
		t.Error("the integrity harness saw no frames")
	}

	if off.LossFrac < 0.25 {
		t.Errorf("repair-off lossFrac = %v, want ≈ injected 0.35", off.LossFrac)
	}
	if on.LossFrac > 0.05 {
		t.Errorf("repair-on lossFrac = %v, want < 5%% after NACK replay", on.LossFrac)
	}
	if on.Repaired == 0 || on.RepairRequests == 0 {
		t.Errorf("repair-on: repaired = %d, requests = %d, want > 0", on.Repaired, on.RepairRequests)
	}
	if off.RepairRequests != 0 || off.RepairBytes != 0 {
		t.Errorf("repair-off must issue no requests: %+v", off)
	}
	if len(on.ConvergeNS) == 0 {
		t.Error("repair-on: no convergence samples")
	}
}

func TestSimulateBudgetTruncatesDataFrames(t *testing.T) {
	w := syntheticWorkload(0)
	// cpu-load 95% from the start: the Fig 7 mapping collapses the
	// packet budget, so level-1 data frames must be suppressed.
	w.Host["cpu-load"] = []HostSample{{AtNS: w.StartNS, Host: "h0", Param: "cpu-load", Value: 95}}
	out := Simulate(w, Policy{}, SimConfig{Loss: 0})
	if out.Truncated == 0 {
		t.Fatal("high cpu-load must truncate data frames")
	}
	if out.Delivered != out.Expected {
		t.Errorf("surviving frames must still deliver in order: %d/%d", out.Delivered, out.Expected)
	}
	// Renumbering: no repair traffic may appear — truncation must not
	// look like loss to the gap detector.
	on := Simulate(w, Policy{
		Repair: RepairPolicy{Enabled: true, StallTimeoutMS: 100, MaxRetries: 6},
	}, SimConfig{Loss: 0})
	if on.RepairRequests != 0 {
		t.Errorf("budget truncation leaked into gap detection: %d NACKs on a lossless run", on.RepairRequests)
	}
}

func TestSweepDeterministic(t *testing.T) {
	w := syntheticWorkload(0.35)
	spec := slo.SpecForClass("interactive")
	cfg := SimConfig{Seed: 42, Loss: -1}
	grid := DefaultGrid()[:8]

	var a, b bytes.Buffer
	if err := WriteJSON(&a, Sweep(w, grid, cfg, spec)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, Sweep(w, grid, cfg, spec)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same workload + grid + seed must produce byte-identical rankings")
	}
}

func TestSweepRanksRepairAboveNoRepair(t *testing.T) {
	w := syntheticWorkload(0.35)
	ranked := Sweep(w, DefaultGrid(), SimConfig{Seed: 1, Loss: -1}, slo.SpecForClass("interactive"))
	worstOn, bestOff := -1, len(ranked)
	for i, r := range ranked {
		if r.Outcome.Policy.Repair.Enabled {
			worstOn = i
		} else if i < bestOff {
			bestOff = i
		}
	}
	if worstOn >= bestOff {
		for _, r := range ranked {
			t.Logf("%2d %-40s fit=%.3f loss=%.3f", r.Rank, r.Outcome.Policy.Name,
				r.Score.Fitness, r.Outcome.LossFrac)
		}
		t.Fatalf("repair-enabled policies must rank strictly above repair-disabled: worst-on=%d best-off=%d",
			worstOn+1, bestOff+1)
	}
}

func TestDefaultGridAndLoadGrid(t *testing.T) {
	grid := DefaultGrid()
	if len(grid) != 30 {
		t.Fatalf("default grid = %d candidates, want 30", len(grid))
	}
	seen := map[string]bool{}
	for _, p := range grid {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("grid names must be unique and non-empty: %q", p.Name)
		}
		seen[p.Name] = true
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGrid(bytes.NewReader([]byte(
		`[{"name":"a","repair":{"enabled":true,"stall_timeout_ms":50,"max_retries":3}},{"name":"b"}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0].Repair.StallTimeout() != 50*time.Millisecond {
		t.Errorf("loaded grid: %+v", loaded)
	}
	if loaded[1].Inference.MaxPackets != 16 {
		t.Errorf("defaults must fill unset inference params: %+v", loaded[1].Inference)
	}
	if _, err := LoadGrid(bytes.NewReader([]byte(`[{"name":"x"},{"name":"x"}]`))); err == nil {
		t.Error("duplicate names must be rejected")
	}
	if _, err := LoadGrid(bytes.NewReader([]byte(`[]`))); err == nil {
		t.Error("empty grid must be rejected")
	}
	// A timeout that overflowed StallTimeout's Duration into a negative
	// one loaded until range checks came in.
	for _, bad := range []string{
		`[{"repair":{"enabled":true,"stall_timeout_ms":10000000000000}}]`,
		`[{"repair":{"enabled":true,"stall_timeout_ms":-5}}]`,
		`[{"repair":{"enabled":true,"max_retries":-1}}]`,
		`{"policies":[{"repair":{"enabled":true,"max_retries":1000000000}}]}`,
	} {
		if _, err := LoadGrid(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("out-of-range repair values must be rejected: %s", bad)
		}
	}
}

// TestAbandonSpanMatchesDefaultGrid: the drain the replay gives a
// repair candidate is the kernel's AbandonSpan, and for every default
// candidate that is the span the replay computed on its own before the
// schedule moved into core.
func TestAbandonSpanMatchesDefaultGrid(t *testing.T) {
	previous := func(r RepairPolicy) time.Duration {
		base := r.StallTimeout()
		span := base
		backoff := base
		max := 16 * base
		for i := 0; i < r.MaxRetries; i++ {
			span += backoff
			if backoff < max {
				backoff *= 2
			}
		}
		return span + span/2
	}
	for _, pol := range DefaultGrid() {
		if !pol.Repair.Enabled {
			continue // no repair, no abandon: the drain is fixed
		}
		if got, want := pol.Repair.options().AbandonSpan(), previous(pol.Repair); got != want {
			t.Errorf("%s: AbandonSpan %v, want %v", pol.Name, got, want)
		}
	}
}
