package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadSurface runs the dead-surface check on the module in
// testdata/mod, whose internal/lib plants one exported function of each
// kind.
func TestDeadSurface(t *testing.T) {
	got, err := deadSurface(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join("testdata", "mod", "internal", "lib", "lib.go")
	want := []string{
		lib + ":8:6: lib.Planted ",    // read by nothing
		lib + ":11:6: lib.BenchOnly ", // read only from cmd/gpsbench
		lib + ":14:6: lib.TestOnly ",  // read only from a _test.go file
		lib + ":17:6: lib.Recursive ", // reads only itself
	}
	if len(got) != len(want) {
		t.Fatalf("got %d offences, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("offence %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
	for _, live := range []string{"lib.Used", "lib.T.Method", "lib.T.String", "helper"} {
		for _, o := range got {
			if strings.Contains(o, live+" ") {
				t.Errorf("%s has a reader but was reported: %s", live, o)
			}
		}
	}
}

// TestRepoHasNoDeadSurface holds this module to the same check, so an
// exported function that loses its last production reader fails the
// tests, not only the lint job.
func TestRepoHasNoDeadSurface(t *testing.T) {
	got, err := deadSurface(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Fatalf("exported functions without a production reader:\n%s", strings.Join(got, "\n"))
	}
}
