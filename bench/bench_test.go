package main

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/service"
	"repro/internal/user"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != (c.want != 0) {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v", c.n, got, ok, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 || s.Mean != 500.5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},       // nested, with a child of its own
		{Name: "a1", Parent: 1, Start: 15, End: 25},      // grandchild: only a pays for it
		{Name: "b", Parent: 0, Start: 30, End: 60},       // overlaps a on [30,40]
		{Name: "c", Parent: 0, Start: 90, End: 120},      // sticks out of its parent: clipped to [90,100]
		{Name: "d", Parent: 0, Start: 35, End: 38},       // inside a and b: already covered
		{Name: "other", Parent: -1, Start: 0, End: 1000}, // a second root is not a child of the first
	}
	want := []int64{100 - 50 - 10, 30 - 10, 10, 30, 30, 3, 1000}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	total, count := selfByName(spans, 1)
	if _, ok := total["root"]; ok || total["a"] != 20 || count["a"] != 1 || count["other"] != 1 {
		t.Errorf("selfByName from 1 = %v %v", total, count)
	}
}

func TestColdQueriesDeterministicAndDistinct(t *testing.T) {
	a, b, other := newColdQueries(7), newColdQueries(7), newColdQueries(8)
	if a.size != 2058840 {
		t.Fatalf("query space holds %d queries, want 2058840", a.size)
	}
	seen := make(map[string]bool, 10000)
	same := 0
	for i := 0; i < 10000; i++ {
		q := a.at(i)
		if q != b.at(i) {
			t.Fatalf("query %d differs between two generators of one seed: %q vs %q", i, q, b.at(i))
		}
		if q == other.at(i) {
			same++
		}
		e, err := regex.Parse(q)
		if err != nil {
			t.Fatalf("query %d %q does not parse: %v", i, q, err)
		}
		// The engine cache keys on the canonical string, so that is what
		// must never repeat.
		if key := e.String(); seen[key] {
			t.Fatalf("query %d %q repeats canonical form %q", i, q, key)
		} else {
			seen[key] = true
		}
	}
	if same > 100 {
		t.Errorf("seeds 7 and 8 agree on %d of 10000 queries", same)
	}
}

func TestOracleOnFigure1(t *testing.T) {
	g := dataset.Figure1()
	o := newOracle(g, "(tram+bus)*.cinema")
	for node, want := range map[graph.NodeID]user.Decision{
		"N1": user.Positive, "N2": user.Positive, "N4": user.Positive, "N6": user.Positive,
		"N3": user.Negative, "N5": user.Negative, "C1": user.Negative,
	} {
		if got := o.LabelNode(node, nil, true); got != want {
			t.Errorf("LabelNode(%s) = %v, want %v (the oracle never zooms)", node, got, want)
		}
	}
	a, err := o.answer(service.Question{Seq: 3, Kind: "label", Node: "N2", CanZoom: true})
	if err != nil || a.Decision != "positive" || a.Seq != 3 {
		t.Errorf("label answer for N2 = %+v, %v", a, err)
	}
	words := [][]string{{"bus", "restaurant"}, {"bus", "tram", "cinema"}, {"cinema"}}
	if got := o.ValidatePath("N2", words, []string{"cinema"}); !reflect.DeepEqual(got, words[1]) {
		t.Errorf("ValidatePath = %v, want the first accepted word %v", got, words[1])
	}
	a, err = o.answer(service.Question{Kind: "path", Node: "N5", Words: words[:1], Candidate: words[0]})
	if err != nil || !a.Accept || a.Word != nil {
		t.Errorf("path answer with no accepted word = %+v, %v; want accept", a, err)
	}
	for learned, want := range map[string]bool{"(bus+tram)*.cinema": true, "cinema": false, "bus*.tram*.cinema": true} {
		a, err := o.answer(service.Question{Kind: "satisfied", Learned: learned})
		if err != nil || a.Satisfied == nil || *a.Satisfied != want {
			t.Errorf("satisfied(%s) = %+v, %v; want %v", learned, a, err, want)
		}
	}
	if len(o.satisfied) != 3 {
		t.Errorf("memoised %d learned queries, want 3", len(o.satisfied))
	}
	if _, err := o.answer(service.Question{Kind: "riddle"}); err == nil {
		t.Error("unknown question kind answered")
	}
	out, _, err := runReference(g, newOracle(g, "(tram+bus)*.cinema"), nil)
	if err != nil || out.Halt != "user-satisfied" || !o.Satisfied(regex.MustParse(out.Learned)) {
		t.Errorf("reference session on Figure 1 = %+v, %v", out, err)
	}
}

func TestAgreeMaths(t *testing.T) {
	for _, c := range []struct {
		better    string
		base, val float64
		want      float64
	}{
		{"lower", 100, 110, 0.10}, {"lower", 100, 90, -0.10},
		{"higher", 100, 90, 0.10}, {"higher", 100, 125, -0.25},
	} {
		if got := worseBy(c.better, c.base, c.val); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.better, c.base, c.val, got, c.want)
		}
	}
	// 100 -> 111 is 11% worse; 111 -> 100 would be fine one way, but
	// agreement is symmetric: either order of the two files must hold.
	if agrees("lower", 100, 111, 0.10) || agrees("lower", 111, 100, 0.10) {
		t.Error("11% apart agrees within 10%")
	}
	if !agrees("lower", 100, 109, 0.10) || !agrees("higher", 109, 100, 0.10) {
		t.Error("9% apart disagrees within 10%")
	}
	if agrees("lower", 0, 1, 0.10) || !agrees("lower", 0, 0, 0.10) {
		t.Error("zero base")
	}
}

func TestScrapeSumsOneFamily(t *testing.T) {
	text := "# HELP gpsd_store_fsyncs_total x\n# TYPE gpsd_store_fsyncs_total counter\n" +
		"gpsd_store_fsyncs_total{engine=\"binary\"} 41\ngpsd_store_fsyncs_total{engine=\"text\"} 1\n" +
		"gpsd_store_fsyncs_total_extra{engine=\"binary\"} 1000\ngpsd_uptime_seconds 3.5\n"
	if got := scrape(text, "gpsd_store_fsyncs_total"); got != 42 {
		t.Errorf("scrape = %v, want 42", got)
	}
	if got := scrape(text, "gpsd_uptime_seconds"); got != 3.5 {
		t.Errorf("scrape of an unlabelled sample = %v, want 3.5", got)
	}
}
