package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/rpq/index"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/user"
	"repro/pkg/client"
)

// The traced run replays a sample of a workload's inputs in process, with a
// span around each call into a layer's public functions. layers maps a
// per-layer metric name to its value; a layer the workload does not cross
// stays at 0.
type layers map[string]float64

// meanSelf sets metric to the mean self time of the spans called name, in
// the given unit (nanoseconds per unit).
func (l layers) meanSelf(metric, name string, total map[string]int64, count map[string]int, unit float64) {
	if n := count[name]; n > 0 {
		l[metric] = float64(total[name]) / float64(n) / unit
	}
}

// traceSetup spans what the daemon does between exec and ready: build the
// graph, intern it, build the reachability index, and on a durable daemon
// write (and, after a restart, read) the snapshot.
func traceSetup(tr *tracer, w workload, seed int64, l layers) (*graph.Graph, *index.Index, error) {
	root := tr.start("setup", 0, -1)
	defer tr.end(root)
	build := tr.start("graph.build", 0, root)
	g, err := service.BuildGraph(w.spec(seed))
	tr.end(build)
	if err != nil {
		return nil, nil, err
	}
	s := tr.start("graph.indexed", 0, root)
	ix := g.Indexed()
	tr.end(s)
	l["graph.build_ms"] = tr.ms(build) + tr.ms(s)
	var idx *index.Index
	if !w.noIndex {
		s = tr.start("index.build", 0, root)
		idx = index.Build(ix, index.Options{})
		tr.end(s)
		l["index.build_ms"] = tr.ms(s)
		l["index.bytes"] = float64(idx.Stats().Bytes)
	}
	if w.durable {
		s = tr.start("graph.snapshot_encode", 0, root)
		data := g.EncodeBinary()
		tr.end(s)
		l["graph.snapshot_encode_ms"] = tr.ms(s)
		s = tr.start("graph.snapshot_decode", 0, root)
		_, err = graph.ParseBinary(data)
		tr.end(s)
		l["graph.snapshot_decode_ms"] = tr.ms(s)
	}
	return g, idx, err
}

// traceEval replays the evaluate stream for the budget, 2000 requests at
// most (the warm stream would otherwise fill the trace file with the same
// seven requests). A cold request is
// parse -> compile -> sweep; rpq memoises compiled DFAs by query string, so
// an untimed evaluation first fills that memo and the sweep span then holds
// the sweep alone. The engine cache is timed on the same stream beside the
// request: all misses on the cold workloads, all hits on the warm one, where
// it is the request.
func traceEval(ctx context.Context, tr *tracer, w workload, seed int64, g *graph.Graph, idx *index.Index, budget time.Duration, l layers) (replayed int) {
	opts := rpq.Options{Workers: rpq.DefaultWorkers(), Index: idx}
	cache := rpq.NewCacheWith(g, rpq.CacheOptions{Workers: opts.Workers, Index: func() *index.Index { return idx }})
	var alphabet []string
	for _, lab := range g.Alphabet() {
		alphabet = append(alphabet, string(lab))
	}
	sweep := "rpq.sweep_indexed"
	if w.noIndex {
		sweep = "rpq.sweep_plain"
	}
	cq := newColdQueries(seed)
	var hits int64
	first := len(tr.spans)
	n := 0
	for deadline := time.Now().Add(budget); n < 2000 && time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		req := n + 1
		if w.warm {
			root := tr.start("request", req, -1)
			s := tr.start("regex.parse", req, root)
			q := regex.MustParse(warmQueries[n%len(warmQueries)])
			tr.end(s)
			s = tr.start("rpq.cache_get", req, root)
			cache.Get(q).Selected()
			tr.end(s)
			tr.end(root)
			continue
		}
		text := cq.at(n)
		rpq.NewWith(g, regex.MustParse(text), opts)
		if idx != nil {
			hits -= int64(idx.Stats().Hits)
		}
		root := tr.start("request", req, -1)
		s := tr.start("regex.parse", req, root)
		q := regex.MustParse(text)
		tr.end(s)
		s = tr.start("automaton.compile", req, root)
		automaton.FromRegex(q).Determinize(alphabet).Minimize()
		tr.end(s)
		s = tr.start(sweep, req, root)
		rpq.NewWith(g, q, opts).Selected()
		tr.end(s)
		tr.end(root)
		if idx != nil {
			hits += int64(idx.Stats().Hits)
		}
		s = tr.start("rpq.cache_get", req, -1)
		cache.Get(q).Selected()
		tr.end(s)
	}
	total, count := selfByName(tr.spans, first)
	l.meanSelf("regex.parse_us", "regex.parse", total, count, 1e3)
	l.meanSelf("automaton.compile_us", "automaton.compile", total, count, 1e3)
	l.meanSelf(sweep+"_us", sweep, total, count, 1e3)
	l.meanSelf("rpq.cache_get_us", "rpq.cache_get", total, count, 1e3)
	if n > 0 {
		l["index.hits"] = float64(hits) / float64(n)
	}
	return n
}

// tracedUser times the session loop between oracle callbacks: a turn span
// opens when a callback returns (the answer is given) and closes when the
// next one is entered (the next question is asked), which is the interval a
// client of the API measures. Oracle think-time is in no span.
type tracedUser struct {
	user.User
	tr   *tracer
	turn int // the open span
	req  int
}

func (u *tracedUser) asked() { u.tr.end(u.turn) }
func (u *tracedUser) answered() {
	u.req++
	u.turn = u.tr.start("interactive.turn", u.req, -1)
}

func (u *tracedUser) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) user.Decision {
	u.asked()
	defer u.answered()
	return u.User.LabelNode(node, n, canZoom)
}

func (u *tracedUser) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	u.asked()
	defer u.answered()
	return u.User.ValidatePath(node, words, candidate)
}

func (u *tracedUser) Satisfied(learned *regex.Expr) bool {
	u.asked()
	defer u.answered()
	return u.User.Satisfied(learned)
}

// traceSessions runs one in-process session per goal. The learner's phases
// arrive through learn.Options.Trace as (phase, duration) when each ends;
// negative_checks ends before the generalize span that contains it.
func traceSessions(tr *tracer, g *graph.Graph, l layers) (turns, meanTurnMs float64, err error) {
	first := len(tr.spans)
	req, sessions, labels, merges, candidates := 0, 0, 0, 0, 0
	for _, goal := range sessionGoals {
		req++
		u := &tracedUser{User: newOracle(g, goal), tr: tr, req: req}
		u.turn = tr.start("interactive.first_question", req, -1)
		checks := time.Duration(-1)
		hook := func(phase string, d time.Duration) {
			switch phase {
			case "negative_checks":
				checks = d
			case "generalize":
				tr.ended("learn.generalize", u.req, u.turn, d)
				if checks >= 0 {
					// Placed at the end of its parent: the hook does not say where in it the checks ran.
					tr.ended("learn.negative_checks", u.req, len(tr.spans)-1, checks)
					checks = -1
				}
			default:
				tr.ended("learn."+phase, u.req, u.turn, d)
			}
		}
		_, t, err := runReference(g, u, hook)
		tr.end(u.turn)
		if err != nil {
			return 0, 0, fmt.Errorf("in-process session for %s: %w", goal, err)
		}
		req = u.req
		sessions++
		labels += t.Labels()
		if res, err := learn.Learn(g, t.Sample, learn.Options{}); err == nil {
			merges += res.Merges
			candidates += res.CandidateMerges
		}
	}
	total, count := selfByName(tr.spans, first)
	turns = float64(count["interactive.turn"])
	// Learner phases are charged per turn, not per Learn call, so that the
	// layers of a turn add up.
	for metric, name := range map[string]string{
		"learn.witnesses_ms":       "learn.witnesses",
		"learn.generalize_ms":      "learn.generalize",
		"learn.negative_checks_ms": "learn.negative_checks",
		"interactive.turn_self_ms": "interactive.turn",
	} {
		l[metric] = float64(total[name]) / turns / 1e6
	}
	l.meanSelf("interactive.first_question_ms", "interactive.first_question", total, count, 1e6)
	l["interactive.labels_per_session"] = float64(labels) / float64(sessions)
	l["learn.merges"] = float64(merges) / float64(sessions)
	l["learn.candidate_merges"] = float64(candidates) / float64(sessions)
	var turnTotal int64
	for _, s := range tr.spans[first:] {
		if s.Name == "interactive.turn" {
			turnTotal += s.End - s.Start
		}
	}
	return turns, float64(turnTotal) / turns / 1e6, nil
}

// traceStore appends a recorded session's journal records, in order, to a
// fresh binary engine with the daemon's flush policy, twenty sessions over.
func traceStore(tr *tracer, dir string, events []client.Event, l layers) error {
	eng, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	first := len(tr.spans)
	for s := 0; s < 20; s++ {
		j, err := eng.CreateJournal("replay-" + strconv.Itoa(s))
		if err != nil {
			return err
		}
		for i, ev := range events {
			sp := tr.start("store.append", s*len(events)+i+1, -1)
			if ev.Terminal() {
				err = j.AppendTerminal(ev.Type, ev.Data)
			} else {
				err = j.Append(ev.Type, ev.Data)
			}
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	total, count := selfByName(tr.spans, first)
	l.meanSelf("store.append_us", "store.append", total, count, 1e3)
	return nil
}

// scrape sums the samples of one family in a Prometheus text exposition.
func scrape(exposition, family string) float64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
