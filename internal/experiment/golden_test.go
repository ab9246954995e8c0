package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/regex"
	"repro/internal/user"
)

// update rewrites the golden corpus instead of comparing against it:
// go test ./internal/experiment -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden")

// benchGoals are the bench's three session goals.
var benchGoals = []string{"(tram+bus)*.cinema", "tram*.bus.museum", "tram.bus.restaurant+bus.park"}

var allStrategies = []string{"random", "informative", "hybrid", "disagreement"}

// goldenCorpus is one golden file: every session of goals × strategies ×
// path validation on and off over one graph.
type goldenCorpus struct {
	file       string
	graph      func() *graph.Graph
	goals      []string
	strategies []string
}

var goldenCorpora = []goldenCorpus{
	{"figure1.txt", dataset.Figure1, benchGoals, allStrategies},
	{"transport10.txt", func() *graph.Graph { return transportGolden(10) }, benchGoals, allStrategies},
	{"transport20.txt", func() *graph.Graph { return transportGolden(20) }, benchGoals, []string{"informative"}},
	// The transport goals select nothing on a ScaleFree graph, so every
	// session would end after one label; these goals use its alphabet.
	{"scalefree200.txt", func() *graph.Graph { return dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 200, Seed: 1}) },
		[]string{"interacts*.binds", "regulates.inhibits", "(interacts+binds)*.regulates"}, allStrategies},
}

func transportGolden(size int) *graph.Graph {
	return dataset.Transport(dataset.TransportOptions{Rows: size, Cols: size, Seed: 1, FacilityRate: 0.3})
}

// dash renders an empty field as "-" so every line splits on spaces.
func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// renderCorpus runs every session of the corpus and renders one block per
// run: a header line, one line per turn, and an end line with the halt
// reason and final query (or the error that ended the run).
func renderCorpus(c goldenCorpus) []byte {
	var buf bytes.Buffer
	for _, goalText := range c.goals {
		goal := regex.MustParse(goalText)
		for _, strat := range c.strategies {
			for _, validate := range []bool{true, false} {
				g := c.graph()
				fmt.Fprintf(&buf, "run goal=%s strategy=%s validation=%t\n", goalText, strat, validate)
				tr, err := interactive.Run(g, user.NewSimulated(g, goal), interactive.Options{
					Strategy:       mustStrategy(strat, 1),
					PathValidation: validate,
				})
				for i, in := range tr.Interactions {
					fmt.Fprintf(&buf, "turn %d node=%s decision=%s zooms=%d word=%s pruned=%d implied=%d learned=%s\n",
						i+1, in.Node, in.Decision, in.Zooms, dash(strings.Join(in.ValidatedWord, ".")),
						in.Pruned, in.Implied, dash(in.Learned))
				}
				if err != nil {
					fmt.Fprintf(&buf, "error %v\n", err)
					continue
				}
				final := ""
				if tr.Final != nil {
					final = tr.Final.String()
				}
				fmt.Fprintf(&buf, "end halt=%s final=%s\n", tr.Halt, dash(final))
			}
		}
	}
	return buf.Bytes()
}

// renderTables renders the quick-config table of every registered
// experiment with its timing columns masked.
func renderTables() []byte {
	var buf bytes.Buffer
	for _, r := range Registry() {
		tbl := r.Run(quickCfg())
		for col, h := range tbl.Headers {
			if strings.Contains(h, "time") {
				for _, row := range tbl.Rows {
					row[col] = "*"
				}
			}
		}
		fmt.Fprintf(&buf, "== %s\n%s\n", r.ID, tbl.String())
	}
	return buf.Bytes()
}

// checkGolden compares got with testdata/golden/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestGolden pins the session transcripts and experiment tables the paper
// reproduction produces: a change meant to preserve behaviour must leave
// every file byte-identical.
func TestGolden(t *testing.T) {
	for _, c := range goldenCorpora {
		t.Run(c.file, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, c.file, renderCorpus(c))
		})
	}
	t.Run("tables.txt", func(t *testing.T) {
		t.Parallel()
		checkGolden(t, "tables.txt", renderTables())
	})
}
