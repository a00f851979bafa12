package obs

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adaptiveqos/internal/metrics"
)

// expoSample is one parsed exposition line.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// series identifies the sample's time series — its name and label set,
// whatever order the labels were written in — with the named labels
// left out.
func (s expoSample) series(omit ...string) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if !slices.Contains(omit, k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	id := s.name
	for _, k := range keys {
		id += fmt.Sprintf(",%s=%q", k, s.labels[k])
	}
	return id
}

// parseExpoLine parses `name{k="v",...} value` per the Prometheus text
// format, honoring \\, \" and \n escapes inside label values.  It is
// deliberately strict: any line WriteMetrics emits that this parser
// rejects is an exposition bug.
func parseExpoLine(line string) (expoSample, error) {
	s := expoSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no name terminator in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		i = 1
		for rest[i] != '}' {
			eq := strings.IndexByte(rest[i:], '=')
			if eq < 0 || len(rest) < i+eq+2 || rest[i+eq+1] != '"' {
				return s, fmt.Errorf("bad label key at %q", rest[i:])
			}
			key := rest[i : i+eq]
			i += eq + 2 // past ="
			var val strings.Builder
			for {
				if i >= len(rest) {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := rest[i]
				if c == '\\' {
					if i+1 >= len(rest) {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					val.WriteByte(c)
					val.WriteByte(rest[i+1])
					i += 2
					continue
				}
				if c == '"' {
					i++
					break
				}
				if c == '\n' {
					return s, fmt.Errorf("raw newline inside label value in %q", line)
				}
				val.WriteByte(c)
				i++
			}
			s.labels[key] = metrics.UnescapeLabel(val.String())
			if rest[i] == ',' {
				i++
			}
		}
		rest = rest[i+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// TestExpositionParserRoundTrip is the satellite guard for label
// escaping: hostile label values seeded through the real name
// constructors must survive a full render-and-parse cycle byte for
// byte, every emitted line must parse, no series may be written twice,
// and every counter family declared in internal/metrics must surface as
// an aqos_ family.
func TestExpositionParserRoundTrip(t *testing.T) {
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })

	hostile := "wire\"d\\client\n0"
	metrics.C(metrics.SLOClientViolations(hostile)).Inc()
	metrics.C(metrics.RuleFired(hostile)).Inc()
	metrics.SetGauge(`slo_burn_short{client="`+metrics.EscapeLabel(hostile)+`"}`, 2.25)
	metrics.H("slo_time_to_recover_ns").Observe(1_500_000)

	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	families := map[string]string{} // family -> declared type
	var samples []expoSample
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families[parts[2]] = parts[3]
			continue
		}
		sm, err := parseExpoLine(line)
		if err != nil {
			t.Fatalf("unparseable exposition line: %v", err)
		}
		if !strings.HasPrefix(sm.name, "aqos_") {
			t.Errorf("sample %q escapes the aqos_ namespace", sm.name)
		}
		id := sm.series()
		if seen[id] {
			t.Errorf("series %s written twice", id)
		}
		seen[id] = true
		samples = append(samples, sm)
	}

	// Every internal counter family must be declared and sampled.
	for name := range metrics.Counters() {
		fam := family(sanitizeName(name))
		if families[fam] != "counter" {
			t.Errorf("counter family %s (from %q) missing or mistyped: %q", fam, name, families[fam])
		}
	}

	// The hostile label value must come back exactly, on every family
	// that carried it.
	wantFamilies := map[string]bool{
		"aqos_slo_client_violations": false,
		"aqos_inference_rule_fired":  false,
		"aqos_slo_burn_short":        false,
	}
	for _, sm := range samples {
		if _, tracked := wantFamilies[sm.name]; !tracked {
			continue
		}
		for _, v := range sm.labels {
			if v == hostile {
				wantFamilies[sm.name] = true
			}
		}
	}
	for fam, found := range wantFamilies {
		if !found {
			t.Errorf("family %s never carried the hostile label value back intact", fam)
		}
	}

	// Histogram series must be internally consistent: every histogram's
	// +Inf bucket equals its count.
	inf, count := map[string]float64{}, map[string]float64{}
	for _, sm := range samples {
		switch {
		case strings.HasSuffix(sm.name, "_bucket") && sm.labels["le"] == "+Inf":
			sm.name = strings.TrimSuffix(sm.name, "_bucket")
			inf[sm.series("le")] = sm.value
		case strings.HasSuffix(sm.name, "_count") && families[strings.TrimSuffix(sm.name, "_count")] == "histogram":
			sm.name = strings.TrimSuffix(sm.name, "_count")
			count[sm.series()] = sm.value
		}
	}
	if c := count["aqos_slo_time_to_recover_ns"]; c == 0 {
		t.Errorf("aqos_slo_time_to_recover_ns_count = %g, want the observation counted", c)
	}
	for id, c := range count {
		if v, ok := inf[id]; !ok || v != c {
			t.Errorf("histogram %s: +Inf bucket %g (present %v) vs count %g", id, v, ok, c)
		}
	}
}
