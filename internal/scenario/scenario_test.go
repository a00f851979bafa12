package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/transport"
)

func testConfig(kind Kind, clients int, seed int64) Config {
	return Config{
		Kind:     kind,
		Clients:  clients,
		Seed:     seed,
		Duration: 30 * time.Second,
		Rate:     2,
		Link: transport.Link{
			Delay:  20 * time.Millisecond,
			Jitter: 10 * time.Millisecond,
			Loss:   0.01,
		},
	}
}

// TestScenarioDeterminism1k is the CI determinism gate: the same
// seeded 1000-client churn scenario (the generator exercising joins,
// leaves and link mutation on top of delivery) run twice must produce
// byte-identical event logs (EventHash) and metric snapshots.
func TestScenarioDeterminism1k(t *testing.T) {
	cfg := testConfig(Churn, 1000, 42)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventHash != b.EventHash {
		t.Fatalf("event hashes differ across identical runs: %s vs %s", a.EventHash, b.EventHash)
	}
	ja, _ := json.Marshal(a.deterministic())
	jb, _ := json.Marshal(b.deterministic())
	if string(ja) != string(jb) {
		t.Fatalf("metric snapshots differ across identical runs:\n%s\n%s", ja, jb)
	}
	if a.Delivered == 0 || a.Published == 0 {
		t.Fatalf("degenerate run: %+v", a.deterministic())
	}
}

// TestScenarioAllKindsDeterministic repeats the two-run comparison for
// every generator at a smaller population.
func TestScenarioAllKindsDeterministic(t *testing.T) {
	for _, kind := range []Kind{FlashCrowd, LectureHall, Churn, Diurnal} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := testConfig(kind, 200, 7)
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.deterministic(), b.deterministic()) {
				t.Fatalf("results differ:\n%+v\n%+v", a.deterministic(), b.deterministic())
			}
			if a.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestScenarioSeedSensitivity: a different seed must change the event
// stream — otherwise the rng is wired up wrong and "deterministic"
// just means "constant".
func TestScenarioSeedSensitivity(t *testing.T) {
	a, err := Run(testConfig(LectureHall, 200, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(LectureHall, 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.EventHash == b.EventHash {
		t.Fatal("different seeds produced identical event streams")
	}
}

// TestScenarioShapes sanity-checks each generator's signature
// behaviour rather than exact numbers.
func TestScenarioShapes(t *testing.T) {
	t.Run("flash ramp", func(t *testing.T) {
		res, err := Run(testConfig(FlashCrowd, 400, 3))
		if err != nil {
			t.Fatal(err)
		}
		// The crowd joins over the first half: the last bucket must see
		// far more deliveries than the first.
		first := res.Curve[0].Delivered
		last := res.Curve[len(res.Curve)-1].Delivered
		if last <= first*2 {
			t.Fatalf("no join ramp visible: first bucket %d, last %d", first, last)
		}
	})
	t.Run("diurnal swing", func(t *testing.T) {
		res, err := Run(testConfig(Diurnal, 200, 3))
		if err != nil {
			t.Fatal(err)
		}
		// Rate swings 0.2x..1.8x: peak bucket traffic must clearly
		// exceed trough bucket traffic.
		var min, max uint64 = ^uint64(0), 0
		for _, p := range res.Curve {
			if p.Sent < min {
				min = p.Sent
			}
			if p.Sent > max {
				max = p.Sent
			}
		}
		if max < min*2 {
			t.Fatalf("no diurnal swing visible: min %d, max %d per bucket", min, max)
		}
	})
	t.Run("lecture steady", func(t *testing.T) {
		res, err := Run(testConfig(LectureHall, 200, 3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Publishers != 1 {
			t.Fatalf("lecture hall wants one speaker, got %d", res.Publishers)
		}
		if res.LatencyP50MS < 20 || res.LatencyP99MS > 35 {
			t.Fatalf("latency outside the configured 20ms+[0,10ms] link: p50=%.2f p99=%.2f",
				res.LatencyP50MS, res.LatencyP99MS)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		if _, err := Run(Config{Kind: "bogus"}); err == nil {
			t.Fatal("unknown kind should error")
		}
	})
}

// deterministic returns a copy with the wall-clock field cleared, for
// run-to-run comparison.
func (r Result) deterministic() Result {
	r.WallMS = 0
	return r
}
