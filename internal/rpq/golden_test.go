package rpq

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// update rewrites the golden files instead of comparing against them:
// go test ./internal/rpq -run TestSweepGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenIndexQueries are gpsbench -indexbench's seven /evaluate queries.
var goldenIndexQueries = []string{
	"(tram+bus)*.cinema",
	"(tram+bus)*.restaurant",
	"tram*.cinema",
	"bus*.museum",
	"(tram+bus)*.(cinema+museum)",
	"tram.bus.tram.cinema",
	"(tram.bus)*.park",
}

// goldenSessionGoals are the bench's three session goals.
var goldenSessionGoals = []string{"(tram+bus)*.cinema", "tram*.bus.museum", "tram.bus.restaurant+bus.park"}

// The eval-cold query grammar: 1 to 6 concatenated factors, then a
// non-empty union of facilities.
var (
	coldFactors    = []string{"tram", "bus", "(tram+bus)", "tram*", "bus*", "(tram+bus)*", "(tram.bus)*"}
	coldFacilities = []string{"cinema", "restaurant", "museum", "park"}
)

// coldGrammarQuery draws one query of the eval-cold grammar.
func coldGrammarQuery(rng *rand.Rand) string {
	var sb strings.Builder
	for n := 1 + rng.Intn(6); n > 0; n-- {
		sb.WriteString(coldFactors[rng.Intn(len(coldFactors))])
		sb.WriteByte('.')
	}
	mask := 1 + rng.Intn(15)
	var fs []string
	for b, f := range coldFacilities {
		if mask&(1<<b) != 0 {
			fs = append(fs, f)
		}
	}
	if len(fs) == 1 {
		sb.WriteString(fs[0])
	} else {
		sb.WriteString("(" + strings.Join(fs, "+") + ")")
	}
	return sb.String()
}

// goldenQueries is the query list every golden graph is evaluated with.
func goldenQueries() []string {
	qs := append([]string(nil), goldenIndexQueries...)
	qs = append(qs, goldenSessionGoals...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		qs = append(qs, coldGrammarQuery(rng))
	}
	return append(qs, "tram*", "metro.cinema", "empty")
}

// goldenGraphs are the graphs of the sweep golden, in file order.
func goldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	transport := func(n int) *graph.Graph {
		return dataset.Transport(dataset.TransportOptions{Rows: n, Cols: n, Seed: 1, FacilityRate: 0.3})
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"figure1", dataset.Figure1()},
		{"transport-10x10", transport(10)},
		{"transport-20x20", transport(20)},
		{"transport-60x60", transport(60)},
		{"scalefree-400", dataset.ScaleFree(dataset.ScaleFreeOptions{
			Nodes: 400, Seed: 1,
			Alphabet: []string{"tram", "bus", "tram", "bus", "cinema", "restaurant", "museum", "park"},
		})},
	}
}

// goldenLine renders one engine's answer: the selected count, the FNV-64a
// of the selected IDs, and the witness edge chain of the first, middle
// and last selected node.
func goldenLine(gname, query string, e *Engine) string {
	sel := e.Selected()
	h := fnv.New64a()
	for _, id := range sel {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\t%s\tcount=%d\tfnv=%016x", gname, query, len(sel), h.Sum64())
	if len(sel) > 0 {
		for _, pick := range []struct {
			tag string
			at  int
		}{{"first", 0}, {"mid", len(sel) / 2}, {"last", len(sel) - 1}} {
			node := sel[pick.at]
			w, ok := e.Witness(node)
			fmt.Fprintf(&sb, "\t%s=%s", pick.tag, node)
			if !ok {
				sb.WriteString(" NO-WITNESS")
			}
			for _, edge := range w {
				fmt.Fprintf(&sb, " -%s-> %s", edge.Label, edge.To)
			}
		}
	}
	return sb.String()
}

// TestSweepGolden pins what every product sweep answers on the benchmark
// graphs and query streams: a rewrite of the sweep must leave
// testdata/golden_sweep.txt byte-identical. The plain engine writes the
// file; the indexed engine and the engine cache must render the same
// lines.
func TestSweepGolden(t *testing.T) {
	var out bytes.Buffer
	queries := goldenQueries()
	for _, gg := range goldenGraphs() {
		idx := index.Build(gg.g.Indexed(), index.Options{})
		cache := NewCacheWith(gg.g, CacheOptions{Index: func() *index.Index { return idx }})
		for _, qs := range queries {
			q := regex.MustParse(qs)
			line := goldenLine(gg.name, qs, New(gg.g, q))
			if got := goldenLine(gg.name, qs, NewWith(gg.g, q, Options{Index: idx})); got != line {
				t.Errorf("indexed engine disagrees with the plain engine:\n got %s\nwant %s", got, line)
			}
			if got := goldenLine(gg.name, qs, cache.Get(q)); got != line {
				t.Errorf("cached engine disagrees with the plain engine:\n got %s\nwant %s", got, line)
			}
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "golden_sweep.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := strings.Split(out.String(), "\n")
		exp := strings.Split(string(want), "\n")
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				w = exp[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}
