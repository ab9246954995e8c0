package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden file instead of comparing against it:
// go test ./examples/... -update
var update = flag.Bool("update", false, "rewrite testdata/stdout.golden")

// TestOutputMatchesGolden runs the example and compares what it prints
// with testdata/stdout.golden byte for byte.
func TestOutputMatchesGolden(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	main()
	w.Close()
	got := <-printed

	path := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from %s\n--- got:\n%s--- want:\n%s", path, got, want)
	}
}
