package index

// Closure is the reflexive-transitive reachability closure of one
// single-label subgraph, stored as one bitset row per strongly connected
// component. Row sharing matters: on transport-style graphs most
// single-label SCCs are short bidirectional segments, so the row count is
// a fraction of the node count, and nodes with no outgoing edge under the
// label (facility leaves, for example) carry no row at all — their
// closure is the trivial {self}.
type Closure struct {
	words int
	// rowOf[v] is the row index of node v's SCC, or -1 when v has no
	// outgoing edge in the label subgraph (closure {v}).
	rowOf []int32
	// rows holds numRows bitsets of `words` words each; the row of an SCC
	// contains its members and every node reachable from them.
	rows []uint64
	// rowLo[r]/rowHi[r] bound the non-zero words of row r, so consumers OR
	// only the populated span. Node interning is lexicographic, which keeps
	// locality-heavy closures (a tram segment and the stops it reaches)
	// inside a couple of words of a much wider bitset.
	rowLo []int32
	rowHi []int32
}

// RowSpan returns the populated word span of v's closure row: a shared
// sub-slice covering words [lo, lo+len(span)) of the full-width row, or
// (nil, 0) when the closure of v is the trivial {v}. Callers must not
// modify it.
func (c *Closure) RowSpan(v int32) (span []uint64, lo int32) {
	r := c.rowOf[v]
	if r < 0 {
		return nil, 0
	}
	return c.rows[int(r)*c.words+int(c.rowLo[r]) : int(r)*c.words+int(c.rowHi[r])], c.rowLo[r]
}

// Reaches reports whether w is in the closure of v (i.e. v reaches w via
// edges of the closed label, or v == w).
func (c *Closure) Reaches(v, w int32) bool {
	if v == w {
		return true
	}
	r := c.rowOf[v]
	if r < 0 {
		return false
	}
	return c.rows[int(r)*c.words+int(w>>6)]&(1<<(uint(w)&63)) != 0
}

// MemBytes returns the closure's approximate memory footprint.
func (c *Closure) MemBytes() int64 {
	return int64(len(c.rows))*8 + int64(len(c.rowOf))*4 + int64(len(c.rowLo))*8
}

// buildClosure computes the closure over n nodes for the subgraph whose
// adjacency is adj (shared slices, not modified). Only nodes with at least
// one outgoing edge participate in the SCC condensation; edges into
// out-degree-0 nodes contribute a single bit. The DP runs over Tarjan's
// emission order, which is reverse topological on the condensation: when
// an SCC is emitted every SCC reachable from it already has its row.
func buildClosure(n int, adj func(int32) []int32) *Closure {
	words := (n + 63) / 64
	c := &Closure{words: words, rowOf: make([]int32, n)}
	hasOut := make([]bool, n)
	roots := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		c.rowOf[v] = -1
		if len(adj(int32(v))) > 0 {
			hasOut[v] = true
			roots = append(roots, int32(v))
		}
	}
	if len(roots) == 0 {
		return c
	}

	// Iterative Tarjan over the hasOut-restricted subgraph.
	const unvisited = -1
	order := make([]int32, n) // discovery index, -1 = unvisited
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range order {
		order[i] = unvisited
	}
	stack := make([]int32, 0, len(roots))
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	var next int32
	numRows := int32(0)
	var comps [][]int32 // SCC member lists in emission order
	for _, root := range roots {
		if order[root] != unvisited {
			continue
		}
		order[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames[:0], frame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			ns := adj(f.v)
			advanced := false
			for f.ei < len(ns) {
				w := ns[f.ei]
				f.ei++
				if !hasOut[w] {
					continue // sink: trivial closure, no SCC participation
				}
				if order[w] == unvisited {
					order[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && order[w] < low[f.v] {
					low[f.v] = order[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] != order[v] {
				continue
			}
			// v roots an SCC: pop its members and assign the next row.
			members := []int32(nil)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.rowOf[w] = numRows
				members = append(members, w)
				if w == v {
					break
				}
			}
			comps = append(comps, members)
			numRows++
		}
	}

	// Closure DP in emission order (reverse topological): the row of an
	// SCC is its members plus the union of the rows (or trivial bits) of
	// every edge target leaving it.
	c.rows = make([]uint64, int(numRows)*words)
	for ci, members := range comps {
		row := c.rows[ci*words : (ci+1)*words]
		for _, v := range members {
			row[v>>6] |= 1 << (uint(v) & 63)
			for _, w := range adj(v) {
				tr := c.rowOf[w]
				if tr < 0 {
					row[w>>6] |= 1 << (uint(w) & 63)
					continue
				}
				if int(tr) == ci {
					continue
				}
				src := c.rows[int(tr)*words : (int(tr)+1)*words]
				for i, wd := range src {
					row[i] |= wd
				}
			}
		}
	}

	// Bound the populated words of each row once, so every downstream OR
	// touches only the span that can carry bits.
	c.rowLo = make([]int32, numRows)
	c.rowHi = make([]int32, numRows)
	for r := 0; r < int(numRows); r++ {
		row := c.rows[r*words : (r+1)*words]
		lo, hi := 0, len(row)
		for lo < hi && row[lo] == 0 {
			lo++
		}
		for hi > lo && row[hi-1] == 0 {
			hi--
		}
		c.rowLo[r], c.rowHi[r] = int32(lo), int32(hi)
	}
	return c
}

// buildClosureSet computes the closure over the union of several label
// subgraphs — the reachability relation of paths that may interleave the
// labels freely, which is exactly what a DFA state with self-loops on that
// label set consumes. The union adjacency is materialised once as a flat
// CSR (temporary; only the rows survive) and fed to the same condensation
// DP as the single-label build. On transport-style graphs the union of the
// transit labels is close to one giant SCC, so the whole closure often
// collapses to a handful of shared rows.
func buildClosureSet(n int, labels []int32, edges func(v, l int32) []int32) *Closure {
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		deg := 0
		for _, l := range labels {
			deg += len(edges(int32(v), l))
		}
		off[v+1] = off[v] + int32(deg)
	}
	dst := make([]int32, off[n])
	for v := 0; v < n; v++ {
		p := off[v]
		for _, l := range labels {
			p += int32(copy(dst[p:], edges(int32(v), l)))
		}
	}
	return buildClosure(n, func(v int32) []int32 { return dst[off[v]:off[v+1]] })
}
