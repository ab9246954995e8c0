package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/rpq"
	"repro/internal/service"
	"repro/internal/user"
)

// workload is one set of inputs. All of them are transport grids; what
// differs is which layers do the work (see README.md).
type workload struct {
	name       string
	rows, cols int
	session    bool // session loop, else evaluate loop
	noIndex    bool // graph loaded with no_index: plain sweep
	warm       bool // the seven fixed queries, unlimited bodies
	durable    bool // gpsd -data-dir: journal, group commit, fsync
}

var workloads = []workload{
	{name: "eval-cold", rows: 60, cols: 60},
	{name: "eval-cold-noindex", rows: 60, cols: 60, noIndex: true},
	{name: "eval-warm", rows: 60, cols: 60, warm: true},
	{name: "session-durable", rows: 10, cols: 10, session: true, durable: true},
	{name: "session-compute", rows: 40, cols: 40, session: true},
}

const graphName = "city"

// spec is the graph the daemon is asked to build, and the bench builds
// beside it. The evaluate workloads draw a new graph for every seed. The
// session workloads keep one: on some graphs a goal's only witness from a
// positive node is longer than the learner's path bound and the session
// fails by design, and the turns of a session depend on the graph so much
// that medians from different graphs cannot be held to one bound.
func (w workload) spec(seed int64) service.LoadSpec {
	if w.session {
		seed = 1
	}
	return service.LoadSpec{
		Format:  "dataset",
		NoIndex: w.noIndex,
		Dataset: service.DatasetSpec{Kind: "transport", Rows: w.rows, Cols: w.cols, Seed: seed, FacilityRate: 0.3},
	}
}

// warmQueries are gpsbench -indexbench's seven, so the two stay comparable.
var warmQueries = []string{
	"(tram+bus)*.cinema",
	"(tram+bus)*.restaurant",
	"tram*.cinema",
	"bus*.museum",
	"(tram+bus)*.(cinema+museum)",
	"tram.bus.tram.cinema",
	"(tram.bus)*.park",
}

const coldLimit = 16

var (
	coldFactors    = []string{"tram", "bus", "(tram+bus)", "tram*", "bus*", "(tram+bus)*", "(tram.bus)*"}
	coldFacilities = []string{"cinema", "restaurant", "museum", "park"}
)

// coldQueries enumerates the eval-cold query space — 1 to 6 concatenated
// factors, then a non-empty union of facilities — in a seeded order that
// visits every element once before repeating. The space holds
// 15 x (7 + ... + 7^6) = 2,058,840 queries against an engine cache of 1024,
// so the cache never helps.
type coldQueries struct {
	size, mul, off uint64
}

func newColdQueries(seed int64) coldQueries {
	c := coldQueries{}
	for n, pow := 1, uint64(7); n <= 6; n, pow = n+1, pow*7 {
		c.size += pow
	}
	c.size *= 15
	// splitmix64 of the seed picks the stride and offset of a full-period
	// walk: i -> (i*mul + off) mod size is a bijection when gcd(mul,size)=1.
	x := uint64(seed) + 0x9e3779b97f4a7c15
	mix := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	c.mul = mix()%c.size | 1
	for gcd(c.mul, c.size) != 1 {
		c.mul += 2
	}
	c.off = mix() % c.size
	return c
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// at returns the i-th query of the walk.
func (c coldQueries) at(i int) string {
	k := (uint64(i)%c.size*c.mul + c.off) % c.size
	mask := k%15 + 1
	k /= 15
	n, pow := 1, uint64(7)
	for k >= pow {
		k -= pow
		n++
		pow *= 7
	}
	var sb strings.Builder
	for ; n > 0; n-- {
		sb.WriteString(coldFactors[k%7])
		sb.WriteByte('.')
		k /= 7
	}
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

// sessionGoals are cycled by every session driver.
var sessionGoals = []string{"(tram+bus)*.cinema", "tram*.bus.museum", "tram.bus.restaurant+bus.park"}

const maxInteractions = 40

func sessionConfig() service.SessionConfig {
	return service.SessionConfig{
		Graph:           graphName,
		Strategy:        "informative",
		PathValidation:  true,
		MaxInteractions: maxInteractions,
	}
}

// oracle is the bench's user: it labels a node positive exactly when the
// goal selects it and never zooms, validates the first offered word the
// goal accepts (else the system's candidate), and is satisfied once the
// learned query selects the goal's answer set. The same type answers the
// daemon's questions over HTTP and drives the in-process reference run, so
// the two transcripts are comparable.
type oracle struct {
	g         *graph.Graph
	goal      *regex.Expr
	engine    *rpq.Engine
	satisfied map[string]bool
}

func newOracle(g *graph.Graph, goal string) *oracle {
	q := regex.MustParse(goal)
	return &oracle{g: g, goal: q, engine: rpq.New(g, q), satisfied: map[string]bool{}}
}

func (o *oracle) LabelNode(node graph.NodeID, _ *graph.Neighborhood, _ bool) user.Decision {
	if o.engine.Selects(node) {
		return user.Positive
	}
	return user.Negative
}

func (o *oracle) ValidatePath(_ graph.NodeID, words [][]string, _ []string) []string {
	for _, w := range words {
		if o.goal.Matches(w) {
			return w
		}
	}
	return nil
}

func (o *oracle) Satisfied(learned *regex.Expr) bool {
	if learned == nil {
		return false
	}
	key := learned.String()
	sat, ok := o.satisfied[key]
	if !ok {
		sat = rpq.New(o.g, learned).SameSelection(o.engine)
		o.satisfied[key] = sat
	}
	return sat
}

// answer adapts the oracle to a question asked over the API.
func (o *oracle) answer(q service.Question) (service.Answer, error) {
	a := service.Answer{Seq: q.Seq}
	switch q.Kind {
	case "label":
		a.Decision = o.LabelNode(q.Node, nil, q.CanZoom).String()
	case "path":
		if a.Word = o.ValidatePath(q.Node, q.Words, q.Candidate); a.Word == nil {
			a.Accept = true
		}
	case "satisfied":
		learned, err := regex.Parse(q.Learned)
		if err != nil {
			return a, fmt.Errorf("satisfied question carries unparsable query %q: %w", q.Learned, err)
		}
		sat := o.Satisfied(learned)
		a.Satisfied = &sat
	default:
		return a, fmt.Errorf("unknown question kind %q", q.Kind)
	}
	return a, nil
}

// outcome is what a finished session is compared on; it decodes from the
// payload of the session's terminal event.
type outcome struct {
	Labels  int    `json:"labels"`
	Halt    string `json:"halt"`
	Learned string `json:"learned"`
}

// runReference runs the session loop in process with the options the
// daemon derives from sessionConfig, so an API session on the same graph
// and goal must end in the same outcome. u wraps the oracle when the run
// is traced.
func runReference(g *graph.Graph, u user.User, trace func(string, time.Duration)) (outcome, *interactive.Transcript, error) {
	t, err := interactive.NewSession(g, u, interactive.Options{
		Strategy:        &interactive.InformativeStrategy{},
		PathValidation:  true,
		MaxInteractions: maxInteractions,
		Learn:           learn.Options{Trace: trace},
	}).Run()
	if err != nil {
		return outcome{}, nil, err
	}
	out := outcome{Labels: t.Labels(), Halt: string(t.Halt)}
	if t.Final != nil {
		out.Learned = t.Final.String()
	}
	return out, t, nil
}
