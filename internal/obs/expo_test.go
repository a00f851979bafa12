package obs

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"adaptiveqos/internal/metrics"
)

// TestExpositionEndToEnd starts the real handler, records through the
// public instrumentation API, scrapes /metrics over HTTP and parses
// the exposition text back into samples — the acceptance path a
// Prometheus scraper would take.
func TestExpositionEndToEnd(t *testing.T) {
	withInstrumentation(t, func() {
		// Populate one of everything through the same entry points the
		// pipeline uses.
		sp := StartStage(MsgID("wired-0", 1), StageMatch)
		sp.End()
		sp = StartStage(MsgID("wired-0", 2), StageMatch)
		sp.EndErr("filtered by profile")
		metrics.SetGauge(`client_sir_db{bs="bs",client="w0"}`, 17.25)
		metrics.SetGauge(`rtp_loss_fraction{client="w0",sender="wired-0"}`, 0.125)
		metrics.C("obs_expo_test_counter").Inc()

		srv := httptest.NewServer(Handler())
		defer srv.Close()

		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("content type %q", ct)
		}

		samples, types := parseExposition(t, resp.Body)

		// Gauges round-trip exactly.
		if v, ok := samples[`aqos_client_sir_db{bs="bs",client="w0"}`]; !ok || v != 17.25 {
			t.Errorf("SIR gauge = %g (present %v)", v, ok)
		}
		if v := samples[`aqos_rtp_loss_fraction{client="w0",sender="wired-0"}`]; v != 0.125 {
			t.Errorf("loss gauge = %g", v)
		}
		if types["aqos_client_sir_db"] != "gauge" {
			t.Error("SIR metric family should be typed gauge")
		}

		// Counters appear with the namespace prefix.
		if v := samples["aqos_obs_expo_test_counter"]; v < 1 {
			t.Errorf("counter = %g", v)
		}
		if types["aqos_obs_expo_test_counter"] != "counter" {
			t.Error("counter should be typed counter")
		}

		// The match-stage histogram exposes count, sum and a cumulative
		// +Inf bucket equal to the count.
		base := `aqos_pipeline_stage_latency_ns{stage="match"}`
		count := samples[histName(base, "_count")]
		if count < 2 {
			t.Fatalf("match stage count = %g, want >= 2", count)
		}
		if inf := samples[withLabel(histName(base, "_bucket"), "le", "+Inf")]; inf != count {
			t.Errorf("+Inf bucket %g != count %g", inf, count)
		}
		if types["aqos_pipeline_stage_latency_ns"] != "histogram" {
			t.Error("stage metric family should be typed histogram")
		}
		// Buckets must be cumulative (non-decreasing in le order as
		// emitted).
		prev := -1.0
		for _, line := range bucketLines(t, srv.URL, base) {
			if line < prev {
				t.Fatalf("bucket series not cumulative: %g after %g", line, prev)
			}
			prev = line
		}

		// Every pipeline stage is present in the exposition, even the
		// ones without samples yet.
		for _, st := range Stages() {
			name := histName(`aqos_pipeline_stage_latency_ns{stage="`+st.String()+`"}`, "_count")
			if _, ok := samples[name]; !ok {
				t.Errorf("stage %s missing from exposition", st)
			}
		}

		// /debug/qos renders the human dump with the stage table and the
		// logged drop.
		dresp, err := http.Get(srv.URL + "/debug/qos?events=8")
		if err != nil {
			t.Fatal(err)
		}
		defer dresp.Body.Close()
		body, err := io.ReadAll(dresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		dump := string(body)
		for _, want := range []string{
			"instrumentation enabled: true",
			"pipeline stage latency",
			"match",
			"filtered by profile",
			`client_sir_db{bs="bs",client="w0"}`,
		} {
			if !strings.Contains(dump, want) {
				t.Errorf("/debug/qos missing %q in:\n%s", want, dump)
			}
		}
	})
}

// histName appends a suffix to the base name of a possibly-labeled
// metric: histName(`h{a="b"}`, "_count") → `h_count{a="b"}`.
func histName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// parseExposition reads Prometheus text format into name→value plus
// name→declared-type maps, failing the test on malformed lines and on a
// series (name plus label set) written twice, which a scraper rejects.
func parseExposition(t *testing.T, r io.Reader) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples = make(map[string]float64)
	types = make(map[string]string)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// `name{labels} value` or `name value`; the value is the text
		// after the last space.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, valText := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("series %s written twice", name)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("exposition produced no samples")
	}
	return samples, types
}

// bucketLines re-scrapes and returns the cumulative bucket values for
// one histogram in emission order.
func bucketLines(t *testing.T, url, base string) []float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// `h_bucket{stage="match"}` → match lines `h_bucket{stage="match",`
	// so only this stage's bucket series is collected.
	prefix := strings.TrimSuffix(histName(base, "_bucket"), "}") + ","
	var out []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		t.Fatalf("no bucket lines for %s", base)
	}
	return out
}
