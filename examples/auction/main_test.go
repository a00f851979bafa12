package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden runs the example and holds what it prints to
// testdata/stdout.golden byte for byte.  Regenerate, when the output is
// meant to move, with
//
//	go run ./examples/auction > examples/auction/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output moved from testdata/stdout.golden; now:\n%s", got)
	}
}
