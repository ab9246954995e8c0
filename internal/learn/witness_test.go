package learn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/paths"
)

// TestBuildPTAMatchesReference pins step 1, which checks coverage once per
// distinct validated word, against buildPTAReference, which checks
// positive by positive: on seeded samples over Figure 1, transport and random graphs
// the witnesses, the PTA, the learned query and the error text must be
// identical. The samples hold words shared by many positives (as label
// propagation leaves them), positives without a word, the empty word,
// labels containing ".", and validated words that are not a path of
// several positives or that are covered by negatives, so that several
// positives fail and the smallest must win.
func TestBuildPTAMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	var graphs []named
	graphs = append(graphs, named{"figure1", figure1(t)})
	for seed := int64(1); seed <= 2; seed++ {
		side := 8 + 8*int(seed-1) // 8x8 and 16x16
		graphs = append(graphs, named{fmt.Sprintf("transport%dx%d/seed=%d", side, side, seed),
			dataset.Transport(dataset.TransportOptions{Rows: side, Cols: side, Seed: seed, FacilityRate: 0.3})})
		graphs = append(graphs, named{fmt.Sprintf("random/seed=%d", seed),
			dottedRandom(seed)})
	}
	samples := 40
	if testing.Short() {
		samples = 10
	}
	outcomes := map[string]int{}
	for _, gc := range graphs {
		for seed := int64(0); seed < int64(samples); seed++ {
			r := rand.New(rand.NewSource(seed))
			sample := step1Sample(r, gc.g)
			opts := Options{MaxPathLength: 2 + r.Intn(2), WitnessOrder: WitnessOrder(r.Intn(2))}
			label := fmt.Sprintf("%s/sample=%d", gc.name, seed)
			outcomes[assertSameStep1(t, gc.g, sample, opts, label)]++
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, want := range []string{"ok", "not a path", "covered", "no witness"} {
		if outcomes[want] == 0 {
			t.Errorf("no sample ended %q; the generator no longer exercises that case", want)
		}
	}
}

// TestBuildPTADottedLabels checks that step 1 tells apart two validated
// words that paths.WordKey renders alike: a.(b.a) and (a.b).a.
func TestBuildPTADottedLabels(t *testing.T) {
	g := graph.New()
	g.MustAddEdge("x", "a", "y")
	g.MustAddEdge("y", "b.a", "z")
	g.MustAddEdge("u", "a.b", "v")
	g.MustAddEdge("v", "a", "w")
	sample := NewSample()
	sample.AddPositive("x", []string{"a", "b.a"})
	sample.AddPositive("u", []string{"a.b", "a"})
	sample.AddNegative("w")
	if paths.WordKey(sample.Positives["x"]) != paths.WordKey(sample.Positives["u"]) {
		t.Fatal("the two words were meant to share a WordKey")
	}
	if got := assertSameStep1(t, g, sample, Options{}, "dotted"); got != "ok" {
		t.Fatalf("sample ended %q, want it learned", got)
	}
}

// assertSameStep1 runs buildPTA and buildPTAReference (and Learn over each
// PTA) on the sample and fails unless they agree exactly. It returns the
// outcome: "ok" or the kind of inconsistency.
func assertSameStep1(t *testing.T, g *graph.Graph, sample *Sample, opts Options, label string) string {
	t.Helper()
	if opts.MaxPathLength <= 0 {
		opts.MaxPathLength = DefaultMaxPathLength
	}
	pta, witnesses, err := buildPTA(g, sample, opts)
	refPTA, refWitnesses, refErr := buildPTAReference(g, sample, opts)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: error %v, reference error %v", label, err, refErr)
	}
	if err != nil {
		switch msg := err.Error(); {
		case strings.Contains(msg, "is not a path of"):
			return "not a path"
		case strings.Contains(msg, "is covered by a negative"):
			if strings.Contains(msg, "validated path") {
				return "covered"
			}
			return "no witness"
		}
		t.Fatalf("%s: unexpected error %v", label, err)
	}
	if !reflect.DeepEqual(witnesses, refWitnesses) {
		t.Fatalf("%s: witnesses %v, reference witnesses %v", label, witnesses, refWitnesses)
	}
	if pta.String() != refPTA.String() {
		t.Fatalf("%s: PTAs diverge:\n%s\nreference:\n%s", label, pta, refPTA)
	}
	res, err := Learn(g, sample, opts)
	if err != nil {
		t.Fatalf("%s: Learn: %v", label, err)
	}
	refNFA, err := generalize(g, refPTA, sample.Negatives, opts, &Result{})
	if err != nil {
		t.Fatalf("%s: generalising the reference PTA: %v", label, err)
	}
	if got, want := res.Query.String(), refNFA.ToRegex().String(); got != want {
		t.Fatalf("%s: learned %q, from the reference PTA %q", label, got, want)
	}
	return "ok"
}

// dottedRandom is a random graph whose labels contain ".".
func dottedRandom(seed int64) *graph.Graph {
	return dataset.Random(dataset.RandomOptions{Nodes: 40, AvgDegree: 2, Alphabet: []string{"a", "b", "a.b", "b.a"}, Seed: seed})
}

// step1Sample draws a sample on g. A few validated words are each copied
// to most nodes that spell them, as label propagation does; some positives
// carry no word; and in most samples one fault is injected: a word given to
// nodes it is no path of, negatives that cover a validated word, or the
// empty word.
func step1Sample(r *rand.Rand, g *graph.Graph) *Sample {
	ids := g.Nodes()
	pick := func() graph.NodeID { return ids[r.Intn(len(ids))] }
	sample := NewSample()
	for i := 0; i < 1+r.Intn(2); i++ {
		sample.AddNegative(pick())
	}
	labelled := func(n graph.NodeID) bool {
		_, pos := sample.Positives[n]
		return pos || slices.Contains(sample.Negatives, n)
	}
	for k := 0; k < 1+r.Intn(4); k++ {
		word := randomWalkWord(r, g, pick(), 1+r.Intn(3))
		if word == nil {
			continue
		}
		// Most words are spread to most of their spellers; some stay with
		// one or two positives, as a word no other open node spells does.
		spread := len(ids)
		if r.Intn(3) == 0 {
			spread = 1 + r.Intn(2)
		}
		for _, n := range ids {
			if spread > 0 && !slices.Contains(sample.Negatives, n) && paths.HasWord(g, n, word) && r.Intn(4) != 0 {
				sample.AddPositive(n, slices.Clone(word))
				spread--
			}
		}
	}
	for i := 0; i < r.Intn(3); i++ {
		if n := pick(); !labelled(n) {
			sample.AddPositive(n, nil)
		}
	}
	switch r.Intn(4) {
	case 0:
		// A word that is no path of several positives: half the time one
		// that other positives validly carry.
		word := randomWalkWord(r, g, pick(), 2+r.Intn(2))
		if positives := sample.PositiveNodes(); r.Intn(2) == 0 && len(positives) > 0 {
			word = sample.Positives[positives[r.Intn(len(positives))]]
		}
		for i := 0; i < 3 && word != nil; i++ {
			if n := pick(); !labelled(n) && !paths.HasWord(g, n, word) {
				sample.AddPositive(n, slices.Clone(word))
			}
		}
	case 1:
		// Negatives that cover a validated word, failing all its positives.
		for _, p := range sample.PositiveNodes() {
			word := sample.Positives[p]
			if word == nil {
				continue
			}
			for _, n := range ids {
				if !labelled(n) && paths.HasWord(g, n, word) && r.Intn(2) == 0 {
					sample.AddNegative(n)
				}
			}
			break
		}
	case 2:
		if n := pick(); !labelled(n) {
			sample.AddPositive(n, []string{})
		}
	}
	return sample
}
