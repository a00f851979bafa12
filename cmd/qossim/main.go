// Command qossim runs seeded large-scale collaboration scenarios on
// the discrete-event network (transport.DESNet) in virtual time: a
// 100k-client session covering simulated minutes completes in
// wall-clock minutes on one box, and the same seed reproduces the run
// byte for byte.
//
// Example — the paper's lecture-hall shape at full scale:
//
//	qossim -scenario lecture -clients 100000 -sim-duration 2m -rate 2 \
//	       -delay 20ms -jitter 10ms -loss 0.01 -json
//
// It prints per-time-bucket p99 delivery latency and loss curves plus
// overall quantiles, and with -json emits the full scenario.Result
// (including the trace event hash used by the determinism CI gate).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptiveqos/internal/scenario"
	"adaptiveqos/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the scenario and
// writes the report (or with -json the Result) to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qossim", flag.ContinueOnError)
	var (
		kind    = fs.String("scenario", "lecture", "workload: flash|lecture|churn|diurnal")
		clients = fs.Int("clients", 1000, "subscriber population")
		pubs    = fs.Int("publishers", 0, "broadcasting population (0 = scenario default)")
		seed    = fs.Int64("seed", 1, "rng seed for the network and workload")
		simDur  = fs.Duration("sim-duration", time.Minute, "simulated session length")
		rate    = fs.Float64("rate", 2, "per-publisher publish rate, msgs/s")
		payload = fs.Int("payload", 256, "published frame size, bytes")
		delay   = fs.Duration("delay", 20*time.Millisecond, "per-client link propagation delay")
		jitter  = fs.Duration("jitter", 10*time.Millisecond, "per-client link jitter bound")
		loss    = fs.Float64("loss", 0.01, "per-client link loss probability")
		bwBps   = fs.Float64("bandwidth-bps", 0, "per-client link bandwidth, bits/s (0 = unlimited)")
		buckets = fs.Int("curve-buckets", 12, "time buckets in the latency/loss curves")
		jsonOut = fs.Bool("json", false, "emit the full Result as JSON")
		tlPath  = fs.String("timeline", "", "export the run's per-window timeline to this file (.csv = CSV, else JSONL)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := scenario.Config{
		Kind:         scenario.Kind(*kind),
		Clients:      *clients,
		Publishers:   *pubs,
		Seed:         *seed,
		Duration:     *simDur,
		Rate:         *rate,
		PayloadBytes: *payload,
		Link: transport.Link{
			Delay:        *delay,
			Jitter:       *jitter,
			Loss:         *loss,
			BandwidthBps: *bwBps,
		},
		CurveBuckets: *buckets,
	}

	res, tl, err := scenario.RunWithTimeline(cfg)
	if err != nil {
		return err
	}
	if *tlPath != "" {
		// The export is a pure function of the scenario config, so the
		// CI determinism gate compares two same-seed exports directly.
		if err := tl.WriteFile(*tlPath); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Fprintf(out, "scenario=%s clients=%d publishers=%d seed=%d sim=%s wall=%s\n",
		res.Scenario, res.Clients, res.Publishers, res.Seed,
		time.Duration(res.SimMS)*time.Millisecond,
		time.Duration(res.WallMS)*time.Millisecond)
	fmt.Fprintf(out, "published=%d sent=%d delivered=%d dropped=%d loss=%.4f\n",
		res.Published, res.Sent, res.Delivered, res.Dropped, res.Loss)
	fmt.Fprintf(out, "latency p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n",
		res.LatencyP50MS, res.LatencyP90MS, res.LatencyP99MS, res.LatencyMeanMS)
	fmt.Fprintf(out, "event-hash=%s\n\n", res.EventHash)
	fmt.Fprintf(out, "%10s %12s %12s %10s %9s %9s %7s\n",
		"window", "sent", "delivered", "dropped", "p50ms", "p99ms", "loss")
	for _, p := range res.Curve {
		fmt.Fprintf(out, "%4ds-%4ds %12d %12d %10d %9.2f %9.2f %7.4f\n",
			p.StartMS/1000, p.EndMS/1000, p.Sent, p.Delivered, p.Dropped,
			p.P50MS, p.P99MS, p.Loss)
	}
	return nil
}
