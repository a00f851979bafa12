package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/replay"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/trace"
)

// summary runs the command and returns its summary's numbers by name:
// "feedback.reports", "wireless-0.images", …
func summary(t *testing.T, args ...string) map[string]int {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("collab %v: %v\n%s", args, err, out.String())
	}
	got := make(map[string]int)
	for _, line := range regexp.MustCompile(`(?m)^(\S+) +(\S+=\d+.*)$`).FindAllStringSubmatch(out.String(), -1) {
		for _, kv := range regexp.MustCompile(`([\w-]+)=(\d+)`).FindAllStringSubmatch(line[2], -1) {
			got[line[1]+"."+kv[1]], _ = strconv.Atoi(kv[2])
		}
	}
	if _, ok := got["feedback.reports"]; !ok {
		t.Fatalf("no feedback line in the summary:\n%s", out.String())
	}
	return got
}

// TestReceptionReportsCloseTheLoop drives the closing half of the
// adaptation loop in the command itself: receivers report on their
// tick, once a core.AdaptInterval, so on lossy wired links senders
// truncate later shares, and a share — truncated, or missing packets
// the wired link lost — still reaches the wireless member as the prefix
// that got through: the base station forwards each packet as it passes.
// Lossless, the same session truncates nothing.
func TestReceptionReportsCloseTheLoop(t *testing.T) {
	// Repair off: every wired send then comes from the workload loop, so
	// the seeded loss pattern repeats.  Shares sent before the first
	// report, and after a report of no loss, go whole; 320 events (32
	// ticks) truncate a good many of the others.
	const events, seed = 320, 2
	args := []string{"-wired", "2", "-wireless", "1", "-events", fmt.Sprint(events),
		"-seed", fmt.Sprint(seed), "-slo=false", "-repair-timeout", "0"}

	shares := 0
	gen := trace.NewGenerator(seed, []string{"wired-0", "wired-1"}, trace.DefaultMix())
	for i := 0; i < events; i++ {
		if gen.Next().Kind == trace.EventImageShare {
			shares++
		}
	}

	lossy := summary(t, append(args, "-loss", "0.1")...)
	reports, cut, reached := lossy["feedback.reports"], lossy["feedback.truncated-shares"], lossy["wireless-0.images"]
	if reports == 0 || cut == 0 {
		t.Fatalf("%d reports sent, %d of %d shares truncated: the loop did not close", reports, cut, shares)
	}
	// At 10% loss nearly every share gets some packets through, its
	// announce among them: the member holds at least nine in ten.  (A
	// station that waited for every packet of a share before serving
	// anyone showed the member 12 of these 38.)
	if reached*10 < shares*9 {
		t.Errorf("%d of %d shares reached wireless-0 at 10%% loss, want at least 90%%", reached, shares)
	}

	clean := summary(t, append(args, "-loss", "0")...)
	if clean["feedback.reports"] == 0 || clean["feedback.truncated-shares"] != 0 {
		t.Errorf("lossless: %d reports, %d truncated shares, want reports and no truncation",
			clean["feedback.reports"], clean["feedback.truncated-shares"])
	}
	if clean["wireless-0.images"] != shares {
		t.Errorf("lossless: %d of %d shares reached wireless-0", clean["wireless-0.images"], shares)
	}
}

// TestTraceTimeline runs the program's flight-recorder summary: with
// -trace it says how many traces it retained and prints one complete
// timeline, from the sender's publish to a receiver's deliver.
func TestTraceTimeline(t *testing.T) {
	obs.ResetFlight()
	t.Cleanup(func() { obs.SetTraceEnabled(false); obs.ResetFlight() })
	var out bytes.Buffer
	if err := run([]string{"-events", "40", "-slo=false", "-trace"}, &out); err != nil {
		t.Fatalf("collab -trace: %v\n%s", err, out.String())
	}
	_, section, ok := strings.Cut(out.String(), "\n--- flight recorder (")
	if !ok {
		t.Fatalf("no flight-recorder section in the summary:\n%s", out.String())
	}
	lines := strings.Split(section, "\n")
	var retained, n int
	var id uint64
	if _, err := fmt.Sscanf(lines[0], "%d traces retained) ---", &retained); err != nil || retained == 0 {
		t.Fatalf("retained-traces header %q: %d traces (%v)", lines[0], retained, err)
	}
	if _, err := fmt.Sscanf(lines[1], "trace %x (%d hops", &id, &n); err != nil || n < 2 || len(lines) < 2+n {
		t.Fatalf("sampled timeline header %q: %d hops (%v)", lines[1], n, err)
	}
	stage := func(line string) string {
		f := strings.Fields(line)
		return f[len(f)-1]
	}
	if first, last := stage(lines[2]), stage(lines[1+n]); first != "publish" || last != "deliver" {
		t.Errorf("trace %016x runs %s → %s, want publish → deliver:\n%s", id, first, last, strings.Join(lines[1:2+n], "\n"))
	}
}

// TestTelemetryTick runs a lossy session with SLO monitoring (on by
// default), a session record and a timeline export, all three fed by the
// one telemetry tick: the record verifies, the SLO section prints, and
// the exported windows are contiguous and, on the virtual clock,
// exactly one tick long.
func TestTelemetryTick(t *testing.T) {
	dir := t.TempDir()
	record, tlPath := filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "tl.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-events", "20", "-loss", "0.2", "-record", record, "-timeline", tlPath}, &out); err != nil {
		t.Fatalf("collab: %v\n%s", err, out.String())
	}
	for _, want := range []string{"record verified", "--- slo conformance ---"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}

	// One series' windows are every series' windows.
	data, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var meta timeline.Meta
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta.WindowMS != telemetryTick.Milliseconds() {
		t.Errorf("exported window = %d ms, want %d", meta.WindowMS, telemetryTick.Milliseconds())
	}
	var windows []timeline.Point
	var first string
	for _, line := range lines[1:] {
		var rec struct {
			Series string `json:"series"`
			timeline.Point
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("body line: %v", err)
		}
		if first == "" {
			first = rec.Series
		}
		if rec.Series == first {
			windows = append(windows, rec.Point)
		}
	}
	if len(windows) < 2 {
		t.Fatalf("%d windows exported, want two or more", len(windows))
	}
	// Every window but the flushed tail spans exactly one tick.
	for i, w := range windows {
		if i > 0 && w.StartNS != windows[i-1].EndNS {
			t.Errorf("window %d starts at %d, the previous one ended at %d", i, w.StartNS, windows[i-1].EndNS)
		}
		if width := time.Duration(w.EndNS - w.StartNS); i < len(windows)-1 && width != telemetryTick {
			t.Errorf("window %d is %v long, want %v", i, width, telemetryTick)
		}
	}
}

// TestRecordReplays records a lossy session and hands the record to
// the counterfactual replay, as cmd/qosreplay does: the workload lies
// within the run's virtual length, the clock its publishes and QoS
// samples are stamped on, and one simulation of it finishes.  The
// session is recorded at one P and again at two, and both records hold
// the same publishes at the same virtual instants, the same QoS samples
// in the same order, and as many events of every type: a recorder that shed events at one P would lose some
// of them, and a node whose work depends on the count of Ps would
// record more spans or QoS samples at two.
func TestRecordReplays(t *testing.T) {
	const events, repairTimeout = 20, 250 * time.Millisecond
	record := func(procs int) *obs.Session {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		path := filepath.Join(t.TempDir(), fmt.Sprintf("s%d.jsonl", procs))
		var out bytes.Buffer
		if err := run([]string{"-events", fmt.Sprint(events), "-loss", "0.35",
			"-repair-timeout", repairTimeout.String(), "-record", path}, &out); err != nil {
			t.Fatalf("collab at GOMAXPROCS=%d: %v\n%s", procs, err, out.String())
		}
		sess, err := obs.LoadSessionFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	type publish struct {
		sender string
		seq    uint64
		size   int
		atNS   int64
	}
	publishes := func(s *obs.Session) []publish {
		var out []publish
		for _, ev := range s.Events {
			if ev.Type == obs.RecTypePublish {
				out = append(out, publish{ev.Client, ev.Seq, ev.Size, ev.AtNS})
			}
		}
		return out
	}
	// A QoS sample is its gauge, instant and value, in record order: the
	// samplers walk their state in a fixed order, so two runs list them
	// alike.
	type qos struct {
		name  string
		atNS  int64
		value float64
	}
	samples := func(s *obs.Session) []qos {
		var out []qos
		for _, ev := range s.Events {
			if ev.Type == obs.RecTypeQoS {
				out = append(out, qos{ev.Name, ev.AtNS, ev.Value})
			}
		}
		return out
	}
	types := func(s *obs.Session) map[string]int {
		n := map[string]int{}
		for _, ev := range s.Events {
			n[ev.Type]++
		}
		return n
	}
	sess, sess2 := record(1), record(2)
	one, two := publishes(sess), publishes(sess2)
	if len(one) == 0 || !slices.Equal(one, two) {
		t.Fatalf("the record holds %d publishes at GOMAXPROCS=1 and %d at 2, or they differ", len(one), len(two))
	}
	if n1, n2 := types(sess), types(sess2); !maps.Equal(n1, n2) {
		t.Errorf("the record's events by type: %v at GOMAXPROCS=1, %v at 2", n1, n2)
	}
	if q1, q2 := samples(sess), samples(sess2); len(q1) == 0 || !slices.Equal(q1, q2) {
		i := 0
		for i < min(len(q1), len(q2)) && q1[i] == q2[i] {
			i++
		}
		t.Errorf("the record's qos samples differ from sample %d of %d (%d at GOMAXPROCS=2)", i, len(q1), len(q2))
	}
	w, err := replay.ExtractWorkload(sess)
	if err != nil {
		t.Fatal(err)
	}
	// The longest the run can be: the workload's pacing, the drain, the
	// repair wait and the whole SLO drain.
	longest := events*eventGap + 200*time.Millisecond + 4*repairTimeout + 500*time.Millisecond + 4*time.Second
	epoch := clock.DefaultEpoch.UnixNano()
	if w.StartNS < epoch || time.Duration(w.EndNS-epoch) > longest {
		t.Fatalf("workload spans [%v, %v] after the epoch, want within [0, %v]",
			time.Duration(w.StartNS-epoch), time.Duration(w.EndNS-epoch), longest)
	}
	o := replay.Simulate(w, replay.Policy{}, replay.SimConfig{Seed: 1, Loss: -1})
	if o.Delivered == 0 {
		t.Errorf("the replay of %d publishes delivered none", len(w.Publishes))
	}
}

// TestSummaryGolden holds two sessions' summaries to goldens under
// testdata byte for byte: a lossless one, where every count in it
// (chat, strokes, images, relays, reports, the archive, the SLO table)
// is fixed by the seed, and a lossy one whose SLO section walks clients
// to violated and back, instants and all.  The session runs on one
// virtual clock, so both are fixed by their flags.  The log on stderr
// carries timestamps and is not compared.  Each session runs in a child
// process, because the SLO engine and the flight recorder are
// process-global and the other tests here leave them populated, and in
// a zone other than UTC, because the summary's instants must not move
// with the machine's zone.  Regenerate, when a summary is meant to
// move, with
//
//	go run ./cmd/collab -wired 2 -wireless 3 -events 40 2>/dev/null > cmd/collab/testdata/summary.golden
//	go run ./cmd/collab -events 30 -loss 0.3 -seed 5 2>/dev/null > cmd/collab/testdata/lossy-slo.golden
func TestSummaryGolden(t *testing.T) {
	if path := os.Getenv("COLLAB_SUMMARY_OUT"); path != "" {
		if _, offset := time.Unix(0, 0).Zone(); offset == 0 {
			// No zone database on this machine: TZ fell back to UTC.
			time.Local = time.FixedZone("UTC-5", -5*60*60)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := run(strings.Fields(os.Getenv("COLLAB_SUMMARY_ARGS")), f); err != nil {
			t.Fatal(err)
		}
		return
	}
	for golden, args := range map[string]string{
		"summary.golden":   "-wired 2 -wireless 3 -events 40",
		"lossy-slo.golden": "-events 30 -loss 0.3 -seed 5",
	} {
		t.Run(golden, func(t *testing.T) {
			got := childSummary(t, args)
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("collab %s moved from testdata/%s; now:\n%s", args, golden, got)
			}
		})
	}
}

// childSummary runs collab with args in a child process, as
// TestSummaryGolden does, and returns the summary it wrote.
func childSummary(t *testing.T, args string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "summary")
	child := exec.Command(os.Args[0], "-test.run=^TestSummaryGolden$")
	child.Env = append(os.Environ(), "COLLAB_SUMMARY_OUT="+path,
		"COLLAB_SUMMARY_ARGS="+args, "TZ=America/New_York")
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("collab %s: %v\n%s", args, err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSLOSectionIgnoresTimeline: the station's QoS sample is the one
// way the SLO engine hears a member's radio picture, and it runs
// whenever the engine is on, so a run without instrumentation lists
// every member the station samples and its conformance section reads
// as it does under -timeline, bar the curve lines a timeline attaches
// to a violation.  Of four members the two farthest fall below the
// text tier and are violated on tier.  Each run is a child process:
// the SLO engine is process-global.
func TestSLOSectionIgnoresTimeline(t *testing.T) {
	const args = "-wireless 4 -events 40"
	section := func(summary []byte) string {
		_, s, ok := strings.Cut(string(summary), "--- slo conformance ---")
		if !ok {
			t.Fatalf("no slo section in:\n%s", summary)
		}
		s, _, _ = strings.Cut(s, "\n--- qos telemetry ---")
		lines := strings.Split(s, "\n")
		return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "  curve ") }), "\n")
	}
	plain := section(childSummary(t, args))
	timed := section(childSummary(t, args+" -timeline "+filepath.Join(t.TempDir(), "tl.jsonl")))
	if plain != timed {
		t.Errorf("the slo section moves with -timeline; without:\n%s\nwith:\n%s", plain, timed)
	}
	for _, want := range []string{`slo conformance \(6 clients`, `(?m)^wireless-2 +interactive +violated +tier `, `(?m)^wireless-3 +interactive +violated +tier `} {
		if !regexp.MustCompile(want).MatchString(plain) {
			t.Errorf("the slo section does not match %s:\n%s", want, plain)
		}
	}
}

// TestDebugEndpointsFollowFlags serves two runs while -obs-hold keeps
// their endpoints up: /debug/timeline is mounted only with -timeline,
// and then serves that run's timeline, the windows it exports at exit
// byte for byte; /debug/slo is mounted only with -slo.
func TestDebugEndpointsFollowFlags(t *testing.T) {
	for _, tc := range []struct{ slo, timeline bool }{{false, false}, {true, true}} {
		t.Run(fmt.Sprintf("slo=%v,timeline=%v", tc.slo, tc.timeline), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			args := []string{"-events", "10", "-obs-addr", addr, "-obs-hold", "2s", "-slo=" + strconv.FormatBool(tc.slo)}
			tlPath := filepath.Join(t.TempDir(), "tl.jsonl")
			if tc.timeline {
				args = append(args, "-timeline", tlPath)
			}

			// The hold begins when its log line is written: read the log
			// up to it, fetch the pages, then let the run finish.
			logs, logw := io.Pipe()
			log.SetOutput(logw)
			defer log.SetOutput(os.Stderr)
			done := make(chan error, 1)
			go func() {
				var out bytes.Buffer
				done <- run(args, &out)
				logw.Close()
			}()
			held := false
			for lines := bufio.NewScanner(logs); !held && lines.Scan(); {
				held = strings.Contains(lines.Text(), "holding observability endpoint")
			}
			if !held {
				t.Fatalf("collab %v ended without holding its endpoint: %v", args, <-done)
			}
			go io.Copy(io.Discard, logs)

			get := func(path string) (int, string) {
				resp, err := http.Get("http://" + addr + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, string(body)
			}
			_, index := get("/debug")
			for path, mounted := range map[string]bool{"/debug/timeline": tc.timeline, "/debug/slo": tc.slo, "/debug/decisions": true} {
				if code, _ := get(path); (code == http.StatusOK) != mounted || strings.Contains(index, path) != mounted {
					t.Errorf("%s answers %d, listed %v; want mounted %v", path, code, strings.Contains(index, path), mounted)
				}
			}
			if tc.timeline {
				_, served := get("/debug/timeline?format=jsonl")
				exported, err := os.ReadFile(tlPath)
				if err != nil {
					t.Fatal(err)
				}
				if served != string(exported) {
					t.Errorf("/debug/timeline serves other windows than the run exported:\n%.300s\nexported:\n%.300s", served, exported)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("collab %v: %v", args, err)
			}
		})
	}
}

// TestNoDispatchFamilies: the station serves its members on its
// segments' own goroutines and runs no dispatch pool, so after a
// session the exposition holds no aqos_dispatch_* family, not even one
// at zero.
func TestNoDispatchFamilies(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-wired", "2", "-wireless", "3", "-events", "10"}, &out); err != nil {
		t.Fatalf("collab: %v\n%s", err, out.String())
	}
	var expo bytes.Buffer
	if err := obs.WriteMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.Contains(line, "aqos_dispatch_") {
			t.Errorf("exposition has a dispatch-pool line: %s", line)
		}
	}
}
