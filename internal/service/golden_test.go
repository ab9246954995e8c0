package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/store"
	"repro/internal/user"
)

// goldenRun is one run of the in-process golden corpus
// (internal/experiment/testdata/golden).
type goldenRun struct {
	goal     string
	strategy string
	validate bool
	turns    []string // turn lines without the pruned= and implied= fields
	learned  []string // the non-empty learned query of each turn
	end      string   // "end halt=… final=… labels=N" or "error …"
}

// readGoldenRuns parses the runs of one golden file that use one of the
// given strategies.
func readGoldenRuns(t *testing.T, file string, strategies []string) []goldenRun {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "experiment", "testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	var runs []goldenRun
	var cur *goldenRun
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		switch fields[0] {
		case "run":
			cur = nil
			if strategy := strings.TrimPrefix(fields[2], "strategy="); slices.Contains(strategies, strategy) {
				runs = append(runs, goldenRun{
					goal:     strings.TrimPrefix(fields[1], "goal="),
					strategy: strategy,
					validate: fields[3] == "validation=true",
				})
				cur = &runs[len(runs)-1]
			}
		case "turn":
			if cur == nil {
				continue
			}
			var kept []string
			for _, f := range fields {
				if !strings.HasPrefix(f, "pruned=") && !strings.HasPrefix(f, "implied=") {
					kept = append(kept, f)
				}
				if l, ok := strings.CutPrefix(f, "learned="); ok && l != "-" {
					cur.learned = append(cur.learned, l)
				}
			}
			cur.turns = append(cur.turns, strings.Join(kept, " "))
		case "end":
			if cur != nil {
				cur.end = fmt.Sprintf("%s labels=%d", line, len(cur.turns))
			}
		case "error":
			if cur != nil {
				cur.end = line
			}
		}
	}
	return runs
}

// journalRecords reads a finished session's journal: its durable records
// on a durable server, from memory otherwise.
func journalRecords(t *testing.T, srv *Server, dir, id string) []store.Record {
	t.Helper()
	if dir != "" {
		return durableRecords(t, dir, id)
	}
	s, ok := srv.manager.Get(id)
	if !ok {
		t.Fatalf("session %s is gone", id)
	}
	return s.Journal().Records()
}

// journalTranscript renders a journal in the golden's line format: one
// line per turn, rebuilt from the question and answer records (questions
// and answers pair by order within their types), then the learned
// hypotheses and the end line from the terminal record.
func journalTranscript(t *testing.T, recs []store.Record) (turns, learned []string, end string) {
	t.Helper()
	var questions []Question
	var answers []Answer
	for _, rec := range recs {
		var err error
		switch rec.Type {
		case recQuestion:
			var q Question
			err = json.Unmarshal(rec.Data, &q)
			questions = append(questions, q)
		case recAnswer:
			var a Answer
			err = json.Unmarshal(rec.Data, &a)
			answers = append(answers, a)
		case recHypothesis:
			var h hypothesisRecord
			err = json.Unmarshal(rec.Data, &h)
			learned = append(learned, h.Learned)
		case recDone, recFailed:
			var d doneRecord
			err = json.Unmarshal(rec.Data, &d)
			if d.Error != "" {
				end = "error " + d.Error
			} else {
				end = fmt.Sprintf("end halt=%s final=%s labels=%d", d.Halt, dashed(d.Learned), d.Labels)
			}
		}
		if err != nil {
			t.Fatalf("record %d: %v", rec.Seq, err)
		}
	}
	if len(answers) != len(questions) {
		t.Fatalf("%d questions but %d answers", len(questions), len(answers))
	}
	type turn struct {
		node, decision, word, learned string
		zooms                         int
	}
	var cur *turn
	var all []*turn
	for i, q := range questions {
		a := answers[i]
		switch q.Kind {
		case "label":
			if cur == nil || cur.decision != "" {
				cur = &turn{node: string(q.Node)}
				all = append(all, cur)
			}
			if a.Decision == "zoom" {
				cur.zooms++
			} else {
				cur.decision = a.Decision
			}
		case "path":
			w := a.Word
			if a.Accept {
				w = q.Candidate
			}
			cur.word = strings.Join(w, ".")
		case "satisfied":
			cur.learned = q.Learned
		}
	}
	for i, tn := range all {
		turns = append(turns, fmt.Sprintf("turn %d node=%s decision=%s zooms=%d word=%s learned=%s",
			i+1, tn.node, tn.decision, tn.zooms, dashed(tn.word), dashed(tn.learned)))
	}
	return turns, learned, end
}

func dashed(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// answerAs answers the pending question as the simulated user would.
func answerAs(t *testing.T, u *user.Simulated, q *Question) Answer {
	t.Helper()
	a := Answer{Seq: q.Seq}
	switch q.Kind {
	case "label":
		frag, err := graph.ParseText(q.Neighborhood)
		if err != nil {
			t.Fatalf("question %d neighbourhood: %v", q.Seq, err)
		}
		n := &graph.Neighborhood{Center: q.Node, Fragment: frag, Frontier: q.Frontier}
		a.Decision = u.LabelNode(q.Node, n, q.CanZoom).String()
	case "path":
		a.Word = u.ValidatePath(q.Node, q.Words, q.Candidate)
		if a.Word == nil {
			a.Accept = true
		}
	case "satisfied":
		sat := u.Satisfied(regex.MustParse(q.Learned))
		a.Satisfied = &sat
	default:
		t.Fatalf("unexpected question kind %q", q.Kind)
	}
	return a
}

// TestSessionsMatchGoldenOverHTTP runs golden-corpus sessions through the
// service and diffs their journals against the in-process golden lines.
// A manual session answered by the same simulated user on the client side
// journals every question, answer and hypothesis, which pins each turn's
// node, decision, zooms and validated word; every strategy runs on Figure 1
// and the 10x10 transport grid, and the informative strategy on the 20x20
// grid and the 200-node ScaleFree graph. A simulated session journals only
// its hypotheses and end, which the manual run of the same golden line
// pins too, so it runs for the informative strategy on the two small
// graphs. The store changes no record, so only the cheapest lines run
// against it too: every strategy on Figure 1 and the informative one on
// the 10x10 grid.
func TestSessionsMatchGoldenOverHTTP(t *testing.T) {
	all := []string{"random", "informative", "hybrid", "disagreement"}
	transport := func(size int) (DatasetSpec, func() *graph.Graph) {
		opts := dataset.TransportOptions{Rows: size, Cols: size, Seed: 1, FacilityRate: 0.3}
		return DatasetSpec{Kind: "transport", Rows: size, Cols: size, Seed: 1, FacilityRate: 0.3},
			func() *graph.Graph { return dataset.Transport(opts) }
	}
	t10spec, t10 := transport(10)
	t20spec, t20 := transport(20)
	graphs := []struct {
		file       string
		spec       DatasetSpec
		g          func() *graph.Graph
		strategies []string
		durable    []string // the strategies also run against a store
		small      bool
	}{
		{"figure1.txt", DatasetSpec{Kind: "figure1"}, dataset.Figure1, all, all, true},
		{"transport10.txt", t10spec, t10, all, []string{"informative"}, true},
		{"transport20.txt", t20spec, t20, []string{"informative"}, nil, false},
		{"scalefree200.txt", DatasetSpec{Kind: "scale-free", Nodes: 200, Seed: 1}, func() *graph.Graph {
			return dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: 200, Seed: 1})
		}, []string{"informative"}, nil, false},
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			t.Parallel()
			var srv *Server
			var ts *httptest.Server
			dir := ""
			if durable {
				dir = t.TempDir()
				srv, ts = newDurableServer(t, dir)
			} else {
				srv, ts = newTestServer(t)
			}
			for _, gr := range graphs {
				strategies := gr.strategies
				if durable {
					strategies = gr.durable
				}
				if len(strategies) == 0 {
					continue
				}
				gr := gr
				name := strings.TrimSuffix(gr.file, ".txt")
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if code := do(t, http.MethodPut, ts.URL+"/v1/graphs/"+name, LoadSpec{Dataset: gr.spec}, nil); code != http.StatusCreated {
						t.Fatalf("load %s returned %d", name, code)
					}
					g := gr.g()
					for _, run := range readGoldenRuns(t, gr.file, strategies) {
						modes := []string{"manual"}
						if gr.small && run.strategy == "informative" {
							modes = append(modes, "simulated")
						}
						for _, mode := range modes {
							checkGoldenRun(t, srv, ts, dir, name, g, run, mode)
						}
					}
				})
			}
		})
	}
}

// checkGoldenRun runs one golden line as a session in the given mode and
// diffs its journal against the line.
func checkGoldenRun(t *testing.T, srv *Server, ts *httptest.Server, dir, name string, g *graph.Graph, run goldenRun, mode string) {
	t.Helper()
	label := fmt.Sprintf("goal=%s strategy=%s validation=%t mode=%s", run.goal, run.strategy, run.validate, mode)
	var v SessionView
	// Seed 1 is the golden corpus's random-strategy seed.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", SessionConfig{
		Graph: name, Mode: mode, Goal: run.goal, Strategy: run.strategy, Seed: 1, PathValidation: run.validate,
	}, &v); code != http.StatusCreated {
		t.Fatalf("%s: create returned %d", label, code)
	}
	s, ok := srv.manager.Get(v.ID)
	if !ok {
		t.Fatalf("%s: session %s is gone", label, v.ID)
	}
	u := user.NewSimulated(g, regex.MustParse(run.goal))
	for {
		if v = waitPendingOrEnd(t, s); v.Pending == nil {
			break
		}
		a := answerAs(t, u, v.Pending)
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+v.ID+"/label", a, nil); code != http.StatusOK {
			t.Fatalf("%s: answer returned %d for %+v", label, code, a)
		}
	}
	turns, learned, end := journalTranscript(t, journalRecords(t, srv, dir, v.ID))
	if mode == "manual" {
		if got, want := strings.Join(turns, "\n"), strings.Join(run.turns, "\n"); got != want {
			t.Errorf("%s: turns differ\n got:\n%s\nwant:\n%s", label, got, want)
		}
	}
	if got, want := strings.Join(learned, " "), strings.Join(run.learned, " "); got != want {
		t.Errorf("%s: hypotheses differ\n got: %s\nwant: %s", label, got, want)
	}
	if end != run.end {
		t.Errorf("%s: end differs\n got: %s\nwant: %s", label, end, run.end)
	}
}
