package replay

import (
	"bytes"
	"os"
	"testing"
	"time"

	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/slo"
)

// loadFixture loads the checked-in recorded session: cmd/collab with
// two wired clients, 20 workload events, 35% injected wired-link loss
// and gap repair disabled — a session that honestly suffered the loss,
// so the counterfactual question "would repair have fixed it?" has a
// non-trivial answer.
//
// Regenerate with:
//
//	go run ./cmd/collab -events 20 -loss 0.35 -repair-timeout 0 \
//	    -record internal/replay/testdata/collab-loss35.jsonl
func loadFixture(t *testing.T) *Workload {
	t.Helper()
	s, err := obs.LoadSessionFile("testdata/collab-loss35.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ExtractWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFixtureWorkloadShape(t *testing.T) {
	w := loadFixture(t)
	if len(w.Senders) != 2 || len(w.Publishes) == 0 {
		t.Fatalf("fixture shape: %s", w)
	}
	if w.MeanLoss < 0.2 || w.MeanLoss > 0.5 {
		t.Errorf("fixture mean loss = %.3f, want the injected ~35%% to be visible", w.MeanLoss)
	}
	if len(w.SIR) == 0 {
		t.Error("fixture should carry wireless SIR samples for the tier counterfactual")
	}
}

// TestFixtureRepairRanksAboveNoRepair is the PR's acceptance bar: on
// the recorded 35%-loss session, every repair-enabled candidate must
// outrank every repair-disabled one.
func TestFixtureRepairRanksAboveNoRepair(t *testing.T) {
	w := loadFixture(t)
	ranked := Sweep(w, DefaultGrid(), SimConfig{Seed: 1, Loss: -1}, slo.SpecForClass("interactive"))
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score.Fitness < ranked[i-1].Score.Fitness {
			t.Fatalf("ranking not ascending at %d", i)
		}
	}
	worstOn, bestOff := -1, len(ranked)
	for i, r := range ranked {
		if r.Outcome.Policy.Repair.Enabled {
			worstOn = i
		} else if i < bestOff {
			bestOff = i
		}
	}
	if worstOn < 0 || bestOff == len(ranked) {
		t.Fatal("grid must contain both repair-on and repair-off candidates")
	}
	if worstOn >= bestOff {
		t.Fatalf("repair-enabled must rank strictly above repair-disabled: worst-on rank %d, best-off rank %d",
			worstOn+1, bestOff+1)
	}
	// The separation must be strict in fitness too, not a tie.
	if ranked[worstOn].Score.Fitness >= ranked[bestOff].Score.Fitness {
		t.Fatalf("fitness separation not strict: %v vs %v",
			ranked[worstOn].Score.Fitness, ranked[bestOff].Score.Fitness)
	}
}

// TestFixtureSweepByteIdentical reruns the full grid on the recorded
// session twice and requires byte-identical JSON rankings — the
// determinism contract the CLI inherits.
func TestFixtureSweepByteIdentical(t *testing.T) {
	w1 := loadFixture(t)
	w2 := loadFixture(t)
	spec := slo.SpecForClass("interactive")
	cfg := SimConfig{Seed: 1, Loss: -1}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, Sweep(w1, DefaultGrid(), cfg, spec)); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, Sweep(w2, DefaultGrid(), cfg, spec)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same record + grid + seed must produce byte-identical rankings")
	}
}

// TestFixtureJitterSweepGolden pins the jittered sweep over the
// recorded session, as `qosreplay -jitter 2ms -json` prints it, byte
// for byte to testdata/collab-loss35-jitter2ms.golden.json: every
// candidate's budget decisions, repair schedule and score.  ci.sh holds
// the command's own output to the same file.  Regenerate, when the
// ranking is meant to move, with
//
//	go run ./cmd/qosreplay -in internal/replay/testdata/collab-loss35.jsonl -jitter 2ms -json \
//	    > internal/replay/testdata/collab-loss35-jitter2ms.golden.json
func TestFixtureJitterSweepGolden(t *testing.T) {
	cfg := SimConfig{Seed: 1, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: -1}
	var got bytes.Buffer
	if err := WriteJSON(&got, Sweep(loadFixture(t), DefaultGrid(), cfg, slo.SpecForClass("interactive"))); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/collab-loss35-jitter2ms.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("jittered sweep moved from testdata/collab-loss35-jitter2ms.golden.json")
	}
}
