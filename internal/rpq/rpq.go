// Package rpq evaluates regular path queries on graph databases.
//
// A path query q is a regular expression over edge labels. Under the
// semantics of the paper a node v of the graph is selected by q if there
// exists a directed path starting at v whose sequence of edge labels spells
// a word of L(q). Evaluation runs a product-graph reachability between the
// graph and a DFA of q, which yields the selected set of all nodes in
// O(|V|·|Q| + |E|·|Q|) after determinisation of q.
//
// The evaluation core is integer-indexed and allocation-light: the graph is
// interned into a CSR view (graph.Indexed), the DFA transition relation is
// walked by dense label index with a precomputed reverse table, and one
// product sweep — a state-wise bitset fixpoint (indexed.go) — computes the
// product reachability as one node bitset per DFA state. An optional
// index.Index of label closures accelerates that fixpoint without
// changing its result. The engine keeps those rows and nothing else of
// the sweep: the start-state row is the answer set, so Selected,
// FirstSelected, SelectedJSON, Selects and SameSelection read that one
// node bitset, and Witness, the only other product walk, is a forward
// BFS that tests the other rows. Compiled DFAs are memoised by canonical
// query string (see cache.go), so re-evaluating the same query on another
// graph with the same alphabet pays only the product sweep.
package rpq

import (
	"encoding/json"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// Engine evaluates one compiled query against one graph. It precomputes
// the product reachability so that Selected, Selects and Witness are cheap.
// An Engine is immutable after NewWith (apart from its lazily built JSON
// encoding) and safe for concurrent use.
type Engine struct {
	ix *graph.Indexed
	// text is the query's canonical spelling, query.String().
	text string
	dfa  *automaton.DFA
	// rev is the DFA's reverse transition table, compiled with the DFA
	// and shared through the DFA memo.
	rev *automaton.ReverseTransitions

	numStates int
	start     automaton.State
	// dfaLabel[gl] is the DFA label index of graph label index gl (total in
	// practice: the DFA alphabet is built as a superset of the graph
	// alphabet; -1 marks a label with no DFA transition, which every
	// product walk skips).
	dfaLabel []int
	// accepting is the DFA's accepting-state mask, shared like rev.
	accepting []bool
	// reach is the product reachability as one node bitset of words
	// uint64s per DFA state, state after state: bit v of row s is set iff
	// configuration (v, s) reaches acceptance. The start-state row is the
	// answer set in Indexed (sorted NodeID) order, so Selected, Selects
	// and SameSelection read that row and Witness reads the others;
	// nothing else of the sweep is kept.
	reach []uint64
	words int
	// numSelected is the popcount of the start-state row.
	numSelected int
	// selectedJSON is the answer set encoded as a JSON array, built through
	// selectedOnce on the first SelectedJSON call. It lives and dies with
	// the engine, so an EngineCache eviction drops it too.
	selectedOnce sync.Once
	selectedJSON []byte
	// idx is the optional closure index the engine was built with (see
	// indexed.go); nil engines behave identically, the index only changes
	// how fast the backward fixpoint runs.
	idx *index.Index
	// scratch pools per-call BFS state (parent pointers, queue) so that
	// repeated Witness calls do not reallocate product-sized arrays.
	scratch sync.Pool
}

// witnessScratch is the reusable BFS state of one Witness call. parent is
// kept all-zero between uses (zero = undiscovered); the owner clears the
// entries it touched before returning the scratch to the pool.
type witnessScratch struct {
	parent []int32
	lab    []int32
	queue  []int32
}

func (e *Engine) getScratch(total int) *witnessScratch {
	ws, _ := e.scratch.Get().(*witnessScratch)
	if ws == nil || len(ws.parent) < total {
		ws = &witnessScratch{
			parent: make([]int32, total),
			lab:    make([]int32, total),
			queue:  make([]int32, 0, 64),
		}
	}
	return ws
}

// cfg packs a product configuration into one int.
func (e *Engine) cfg(node int32, state automaton.State) int {
	return int(node)*e.numStates + int(state)
}

// reaches reports whether configuration (node, state) can reach
// acceptance.
func (e *Engine) reaches(node int32, state automaton.State) bool {
	return e.reach[int(state)*e.words+int(node>>6)]&(1<<(uint(node)&63)) != 0
}

// startRow returns the start state's reach row: the answer set as a node
// bitset.
func (e *Engine) startRow() []uint64 {
	return e.reach[int(e.start)*e.words : (int(e.start)+1)*e.words]
}

// Options configures how an Engine evaluates.
type Options struct {
	// Deprecated: ignored. The product sweep is sequential; the field
	// remains only for callers that still set it (ROADMAP 5(g)).
	Workers int
	// Index, when non-nil, must have been built on the graph's Indexed
	// view; it lets the sweep jump label-star subqueries along its
	// closures (see indexed.go). Results are always byte-identical to an
	// index-less engine.
	Index *index.Index
}

// DefaultWorkers returns one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New compiles the query against the graph's alphabet and precomputes the
// selected node set. The DFA compilation is memoised per canonical query
// string, so repeated calls with an equal query only pay the product
// sweep.
func New(g *graph.Graph, query *regex.Expr) *Engine {
	return NewWith(g, query, Options{})
}

// NewWith is New with options: opts.Index accelerates the sweep.
func NewWith(g *graph.Graph, query *regex.Expr, opts Options) *Engine {
	e := newEngine(g, query)
	e.idx = opts.Index
	e.sweep()
	return e
}

// newEngine interns the graph, compiles the DFA and wires the label
// translation tables, leaving the reachability sweep to the caller.
func newEngine(g *graph.Graph, query *regex.Expr) *Engine {
	ix := g.Indexed()
	alphabet := make([]string, ix.NumLabels())
	for l := range alphabet {
		alphabet[l] = string(ix.LabelAt(int32(l)))
	}
	text := query.String()
	c := compiledDFA(text, query, alphabet)
	dfa := c.dfa
	e := &Engine{
		ix:        ix,
		text:      text,
		dfa:       dfa,
		rev:       c.rev,
		numStates: dfa.NumStates(),
		start:     dfa.Start(),
		accepting: c.accepting,
	}
	e.dfaLabel = make([]int, ix.NumLabels())
	for gl := 0; gl < ix.NumLabels(); gl++ {
		li, ok := dfa.LabelIndex(string(ix.LabelAt(int32(gl))))
		if !ok {
			// Unreachable: the DFA alphabet is built as a superset of the
			// graph alphabet. Treat a mismatch as "no transition" so a
			// broken invariant under-selects instead of corrupting results.
			li = -1
		}
		e.dfaLabel[gl] = li
	}
	return e
}

// QueryString returns the canonical spelling of the query, computed once
// when the engine was built.
func (e *Engine) QueryString() string { return e.text }

// Selects reports whether the query selects the node: one bit of the
// start-state row.
func (e *Engine) Selects(node graph.NodeID) bool {
	i, ok := e.ix.IndexOf(node)
	return ok && e.reaches(i, e.start)
}

// SameSelection reports whether both engines select exactly the same node
// set. Both engines must evaluate over the same graph; the comparison is
// one pass over the start-state rows.
func (e *Engine) SameSelection(other *Engine) bool {
	return e.numSelected == other.numSelected && slices.Equal(e.startRow(), other.startRow())
}

// Selected returns the sorted list of selected nodes.
func (e *Engine) Selected() []graph.NodeID { return e.FirstSelected(e.numSelected) }

// FirstSelected returns the first k selected nodes in sorted order, or all
// of them when k is at least NumSelected. The slice is never nil, so an
// empty answer encodes as a JSON [].
func (e *Engine) FirstSelected(k int) []graph.NodeID {
	out := make([]graph.NodeID, max(0, min(k, e.numSelected)))
	j := 0
	for wi, w := range e.startRow() {
		if j == len(out) {
			break
		}
		for ; w != 0 && j < len(out); w &= w - 1 {
			out[j] = e.ix.NodeAt(int32(wi<<6 + bits.TrailingZeros64(w)))
			j++
		}
	}
	return out
}

// NumSelected returns the size of the answer set without copying it.
func (e *Engine) NumSelected() int { return e.numSelected }

// SelectedJSON returns the sorted answer set as a JSON array of strings,
// byte for byte what encoding/json writes for Selected() (an empty set is
// "[]", never "null"). The encoding is built once, on the first call, and
// shared by every caller, who must not modify it.
func (e *Engine) SelectedJSON() []byte {
	e.selectedOnce.Do(func() {
		e.selectedJSON, _ = json.Marshal(e.Selected()) // a []string cannot fail to encode
	})
	return e.selectedJSON
}

// Witness returns a shortest path (sequence of edges) starting at node
// whose labels spell a word of L(q), and ok=false if the node is not
// selected. A selected node whose shortest witness is the empty word (a
// nullable query) returns an empty edge slice with ok=true.
//
// The BFS stores one parent pointer per discovered configuration instead of
// copying the partial path into every queue entry, so extraction is linear
// in the explored product rather than quadratic in path length.
func (e *Engine) Witness(node graph.NodeID) ([]graph.Edge, bool) {
	ni, ok := e.ix.IndexOf(node)
	if !ok {
		return nil, false
	}
	if !e.reaches(ni, e.start) {
		return nil, false
	}
	if e.accepting[e.start] {
		return []graph.Edge{}, true
	}
	S := e.numStates
	total := e.ix.NumNodes() * S
	// parent[c] = parent configuration + 1 (0 = undiscovered, -1 = root);
	// lab[c] = graph label index of the edge that discovered c.
	ws := e.getScratch(total)
	parent, lab := ws.parent, ws.lab
	startCfg := e.cfg(ni, e.start)
	parent[startCfg] = -1
	queue := append(ws.queue[:0], int32(startCfg))
	numLabels := e.ix.NumLabels()
	found := -1
search:
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		u := int32(c / S)
		s := automaton.State(c % S)
		for gl := 0; gl < numLabels; gl++ {
			outs := e.ix.Out(u, int32(gl))
			if len(outs) == 0 || e.dfaLabel[gl] < 0 {
				continue
			}
			next := e.dfa.NextByIndex(s, e.dfaLabel[gl])
			for _, v := range outs {
				nc := e.cfg(v, next)
				if parent[nc] != 0 {
					continue
				}
				// Only explore configurations that can still reach
				// acceptance; this keeps the BFS linear in the useful
				// product.
				if !e.reaches(v, next) {
					continue
				}
				parent[nc] = int32(c) + 1
				lab[nc] = int32(gl)
				if e.accepting[next] {
					found = nc
					break search
				}
				queue = append(queue, int32(nc))
			}
		}
	}
	var path []graph.Edge
	if found >= 0 {
		path = e.reconstruct(parent, lab, found)
		parent[found] = 0
	}
	// Restore the all-zero invariant before pooling the scratch: only the
	// discovered configurations (all of which sit in the queue) were touched.
	for _, c := range queue {
		parent[c] = 0
	}
	ws.queue = queue[:0]
	e.scratch.Put(ws)
	return path, found >= 0
}

// reconstruct walks the parent pointers back from the accepting
// configuration and emits the edge sequence in forward order.
func (e *Engine) reconstruct(parent, parentLab []int32, last int) []graph.Edge {
	depth := 0
	for c := last; parent[c] != -1; c = int(parent[c]) - 1 {
		depth++
	}
	path := make([]graph.Edge, depth)
	S := e.numStates
	for c := last; parent[c] != -1; c = int(parent[c]) - 1 {
		p := int(parent[c]) - 1
		depth--
		path[depth] = graph.Edge{
			From:  e.ix.NodeAt(int32(p / S)),
			Label: e.ix.LabelAt(parentLab[c]),
			To:    e.ix.NodeAt(int32(c / S)),
		}
	}
	return path
}

// Evaluate is a convenience helper that compiles and evaluates the query in
// one call and returns the selected nodes.
func Evaluate(g *graph.Graph, query *regex.Expr) []graph.NodeID {
	return New(g, query).Selected()
}

// Consistent reports whether the query selects every node of positives and
// none of negatives on the graph.
func Consistent(g *graph.Graph, query *regex.Expr, positives, negatives []graph.NodeID) bool {
	return New(g, query).ConsistentWith(positives, negatives)
}

// ConsistentWith reports whether the engine's query selects every node of
// positives and none of negatives.
func (e *Engine) ConsistentWith(positives, negatives []graph.NodeID) bool {
	for _, p := range positives {
		if !e.Selects(p) {
			return false
		}
	}
	for _, n := range negatives {
		if e.Selects(n) {
			return false
		}
	}
	return true
}
