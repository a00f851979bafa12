package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// goldenArgs is the population and length every golden run shares:
// large enough for each scenario's shape to show, small enough to run
// in tens of milliseconds.
var goldenArgs = []string{"-clients", "300", "-sim-duration", "20s"}

// wallMS matches the one field of the Result that is not a function of
// the scenario config.
var wallMS = regexp.MustCompile(`"wall_ms": \d+`)

func checkGolden(t *testing.T, got []byte, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output moved from testdata/%s; now:\n%s", golden, got)
	}
}

// TestJSONGolden runs each scenario with -json and holds the Result,
// wall_ms zeroed, to testdata/<scenario>.json.golden byte for byte.
// Regenerate, when the output is meant to move, with
//
//	go run ./cmd/qossim -scenario lecture -clients 300 -sim-duration 20s -json |
//	  sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' > cmd/qossim/testdata/lecture.json.golden
//
// and likewise for flash, churn and diurnal.
func TestJSONGolden(t *testing.T) {
	for _, kind := range []string{"lecture", "flash", "churn", "diurnal"} {
		t.Run(kind, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append([]string{"-scenario", kind, "-json"}, goldenArgs...), &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, wallMS.ReplaceAll(out.Bytes(), []byte(`"wall_ms": 0`)), kind+".json.golden")
		})
	}
}

// TestTimelineGolden holds the lecture run's -timeline JSONL export to
// testdata/lecture-timeline.jsonl.golden byte for byte.  Regenerate
// with
//
//	go run ./cmd/qossim -scenario lecture -clients 300 -sim-duration 20s \
//	  -timeline cmd/qossim/testdata/lecture-timeline.jsonl.golden
func TestTimelineGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.jsonl")
	var out bytes.Buffer
	if err := run(append([]string{"-scenario", "lecture", "-timeline", path}, goldenArgs...), &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, got, "lecture-timeline.jsonl.golden")
}
