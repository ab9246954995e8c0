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
// walked by dense label index with a precomputed reverse table, and the
// product-reachability frontier lives in a flat []uint64 bitset indexed by
// node*numStates + state. Compiled DFAs are memoised by canonical query
// string (see cache.go), so re-evaluating the same query on a new graph
// revision pays only the linear product sweep.
package rpq

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// Engine evaluates one compiled query against one graph. It precomputes
// the product reachability so that Selected, Selects and Witness are cheap.
// An Engine is immutable after New and safe for concurrent use.
type Engine struct {
	g     *graph.Graph
	ix    *graph.Indexed
	query *regex.Expr
	// text is query's canonical spelling, query.String().
	text string
	dfa  *automaton.DFA

	numStates int
	start     automaton.State
	// dfaLabel[gl] is the DFA label index of graph label index gl (total in
	// practice: the DFA alphabet is built as a superset of the graph
	// alphabet; -1 marks a label with no DFA transition, which every
	// product walk skips).
	dfaLabel  []int
	accepting []bool
	// accReach is a bitset over configurations node*numStates+state: the
	// bit is set iff an accepting configuration is reachable. The eager
	// sweeps fill it during construction; the indexed sweep leaves it nil
	// and parks a fill closure in accFill instead, materialised through
	// accOnce on the first configuration probe — Selected is served off
	// the per-state rows, so an /evaluate-only engine never pays the
	// product-layout scatter.
	accReach []uint64
	accOnce  sync.Once
	accPtr   atomic.Pointer[[]uint64]
	accFill  func() []uint64
	// selectedIDs caches the sorted answer set.
	selectedIDs []graph.NodeID
	// selectedJSON is selectedIDs encoded as a JSON array, built through
	// selectedOnce on the first SelectedJSON call. It lives and dies with
	// the engine, so an EngineCache eviction drops it too.
	selectedOnce sync.Once
	selectedJSON []byte
	// idx is the optional precomputed reachability index the engine was
	// built with (see indexed.go); nil engines behave identically, the
	// index only changes how fast the backward fixpoint runs.
	idx *index.Index
	// scratch pools per-call BFS state (parent pointers, queue) so that
	// repeated Witness calls do not reallocate product-sized arrays.
	scratch sync.Pool
	// evalPool pools the bitset/queue scratch of SelectsWithin and
	// PairsFrom the same way.
	evalPool sync.Pool
}

// witnessScratch is the reusable BFS state of one Witness call. parent is
// kept all-zero between uses (zero = undiscovered); the owner clears the
// entries it touched before returning the scratch to the pool.
type witnessScratch struct {
	parent []int32
	lab    []int32
	queue  []int32
}

// evalScratch is the reusable forward-BFS state of one SelectsWithin or
// PairsFrom call. seen is kept all-zero and answers all-false between
// uses; the owner clears the entries it touched before returning the
// scratch to the pool.
type evalScratch struct {
	seen    []uint64
	queue   []int32
	next    []int32
	touched []int32
	answers []bool
}

// getEval returns a pooled scratch sized for the engine's product.
func (e *Engine) getEval() *evalScratch {
	n := e.ix.NumNodes()
	words := (n*e.numStates + 63) / 64
	es, _ := e.evalPool.Get().(*evalScratch)
	if es == nil || len(es.seen) < words || len(es.answers) < n {
		es = &evalScratch{
			seen:    make([]uint64, words),
			answers: make([]bool, n),
		}
	}
	return es
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

func (e *Engine) reach(c int) bool {
	acc := e.accBits()
	return acc[c>>6]&(1<<(uint(c)&63)) != 0
}

// accBits returns the packed configuration bitset, materialising it on
// first use when the engine was built by the indexed sweep.
func (e *Engine) accBits() []uint64 {
	if e.accReach != nil {
		return e.accReach
	}
	e.accOnce.Do(func() {
		acc := e.accFill()
		e.accFill = nil // frees the captured sweep scratch
		e.accPtr.Store(&acc)
	})
	return *e.accPtr.Load()
}

// New compiles the query against the graph's alphabet and precomputes the
// selected node set with a sequential product sweep. The DFA compilation is
// memoised per canonical query string, so repeated calls with an equal
// query only pay the product sweep. See NewWith for the sharded sweep.
func New(g *graph.Graph, query *regex.Expr) *Engine {
	e := newEngine(g, query)
	e.computeReachability()
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
	dfa := compiledDFA(text, query, alphabet)
	e := &Engine{
		g:         g,
		ix:        ix,
		query:     query,
		text:      text,
		dfa:       dfa,
		numStates: dfa.NumStates(),
		start:     dfa.Start(),
		accepting: dfa.AcceptingMask(),
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

// Query returns the compiled query expression.
func (e *Engine) Query() *regex.Expr { return e.query }

// QueryString returns the canonical spelling of the query, Query().String(),
// computed once when the engine was built.
func (e *Engine) QueryString() string { return e.text }

// computeReachability marks every configuration (node, state) from which an
// accepting DFA state is reachable in the product graph, by a backward
// breadth-first propagation from accepting configurations over the CSR
// in-edges and the DFA reverse-transition table.
func (e *Engine) computeReachability() {
	n := e.ix.NumNodes()
	S := e.numStates
	total := n * S
	e.accReach = make([]uint64, (total+63)/64)
	if total == 0 {
		return
	}
	queue := make([]int32, 0, total)
	// Seed: every (node, state) with state accepting.
	for s := 0; s < S; s++ {
		if !e.accepting[s] {
			continue
		}
		for i := 0; i < n; i++ {
			c := i*S + s
			e.accReach[c>>6] |= 1 << (uint(c) & 63)
			queue = append(queue, int32(c))
		}
	}
	rev := e.dfa.Reverse()
	numLabels := e.ix.NumLabels()
	for head := 0; head < len(queue); head++ {
		c := int(queue[head])
		u := int32(c / S)
		sp := automaton.State(c % S)
		for gl := 0; gl < numLabels; gl++ {
			ins := e.ix.In(u, int32(gl))
			if len(ins) == 0 || e.dfaLabel[gl] < 0 {
				continue
			}
			preds := rev.Pred(sp, e.dfaLabel[gl])
			if len(preds) == 0 {
				continue
			}
			for _, v := range ins {
				base := int(v) * S
				for _, s := range preds {
					pc := base + int(s)
					if e.accReach[pc>>6]&(1<<(uint(pc)&63)) == 0 {
						e.accReach[pc>>6] |= 1 << (uint(pc) & 63)
						queue = append(queue, int32(pc))
					}
				}
			}
		}
	}
	e.collectSelected()
}

// collectSelected caches the sorted answer set: node indices are interned
// in sorted NodeID order, so one ascending sweep yields sorted IDs.
func (e *Engine) collectSelected() {
	n := e.ix.NumNodes()
	S := e.numStates
	for i := 0; i < n; i++ {
		if e.reach(i*S + int(e.start)) {
			e.selectedIDs = append(e.selectedIDs, e.ix.NodeAt(int32(i)))
		}
	}
}

// Selects reports whether the query selects the node.
func (e *Engine) Selects(node graph.NodeID) bool {
	i, ok := e.ix.IndexOf(node)
	if !ok {
		return false
	}
	return e.reach(e.cfg(i, e.start))
}

// SameSelection reports whether both engines select exactly the same node
// set. Both engines must evaluate over the same graph; the comparison is
// linear in the answer size.
func (e *Engine) SameSelection(other *Engine) bool {
	if len(e.selectedIDs) != len(other.selectedIDs) {
		return false
	}
	for i := range e.selectedIDs {
		if e.selectedIDs[i] != other.selectedIDs[i] {
			return false
		}
	}
	return true
}

// Selected returns the sorted list of selected nodes.
func (e *Engine) Selected() []graph.NodeID {
	out := make([]graph.NodeID, len(e.selectedIDs))
	copy(out, e.selectedIDs)
	return out
}

// NumSelected returns the size of the answer set without copying it.
func (e *Engine) NumSelected() int { return len(e.selectedIDs) }

// SelectedJSON returns the sorted answer set as a JSON array of strings,
// byte for byte what encoding/json writes for Selected() (an empty set is
// "[]", never "null"). The encoding is built once, on the first call, and
// shared by every caller, who must not modify it.
func (e *Engine) SelectedJSON() []byte {
	e.selectedOnce.Do(func() {
		ids := e.selectedIDs
		if ids == nil {
			ids = []graph.NodeID{}
		}
		e.selectedJSON, _ = json.Marshal(ids) // a []string cannot fail to encode
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
	if !ok || !e.reach(e.cfg(ni, e.start)) {
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
				if !e.reach(nc) {
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

// SelectsWithin reports whether the node has a path of length at most
// maxLen whose labels are in L(q). It is used by the bounded strategies.
func (e *Engine) SelectsWithin(node graph.NodeID, maxLen int) bool {
	ni, ok := e.ix.IndexOf(node)
	if !ok {
		return false
	}
	if e.accepting[e.start] {
		return true
	}
	S := e.numStates
	es := e.getEval()
	seen := es.seen
	startCfg := e.cfg(ni, e.start)
	seen[startCfg>>6] |= 1 << (uint(startCfg) & 63)
	touched := append(es.touched[:0], int32(startCfg))
	frontier := append(es.queue[:0], int32(startCfg))
	next := es.next[:0]
	numLabels := e.ix.NumLabels()
	found := false
search:
	for depth := 0; depth < maxLen && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, cc := range frontier {
			c := int(cc)
			u := int32(c / S)
			s := automaton.State(c % S)
			for gl := 0; gl < numLabels; gl++ {
				outs := e.ix.Out(u, int32(gl))
				if len(outs) == 0 || e.dfaLabel[gl] < 0 {
					continue
				}
				ns := e.dfa.NextByIndex(s, e.dfaLabel[gl])
				if e.accepting[ns] {
					found = true
					break search
				}
				for _, v := range outs {
					nc := e.cfg(v, ns)
					if seen[nc>>6]&(1<<(uint(nc)&63)) == 0 {
						seen[nc>>6] |= 1 << (uint(nc) & 63)
						touched = append(touched, int32(nc))
						next = append(next, int32(nc))
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	// Restore the all-zero invariant before pooling: every set bit was
	// recorded in touched.
	for _, c := range touched {
		seen[c>>6] &^= 1 << (uint(c) & 63)
	}
	es.queue, es.next, es.touched = frontier[:0], next[:0], touched[:0]
	e.evalPool.Put(es)
	return found
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
