package graph

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Binary graph codec. The on-disk form is the dense Indexed view itself —
// interned node and label string tables followed by the out-adjacency CSR
// with varint-packed degrees and targets — so encoding is a flat walk of
// arrays and decoding rebuilds the graph without going through the text
// parser. On the recovery hot path this replaces the text round-trip,
// whose line scanning and per-edge string splitting dominate restore time
// on large graphs.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic   "GCSR" + format version byte (4+1 bytes)
//	n, m    node and label counts
//	n x     node id (varint length + bytes), in sorted order
//	m x     label   (varint length + bytes), in sorted order
//	a       number of nodes carrying attributes, then a x
//	          node index, attribute count, count x (key, value) strings
//	n*m x   out-bucket degree (bucket b = node*m + label, CSR order)
//	e x     out-target node index per bucket, concatenated
//
// The codec preserves exactly what the text format preserves — nodes,
// attributes and labelled edges — so Text() round-trips byte-identically
// through EncodeBinary/ParseBinary.

// binaryMagic identifies a binary graph payload; the trailing byte is the
// format version.
var binaryMagic = []byte{'G', 'C', 'S', 'R', 1}

// appendUvarint appends v to dst in unsigned varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendString appends a varint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// EncodeBinary serialises the graph in the binary CSR format.
func (g *Graph) EncodeBinary() []byte {
	ix := g.Indexed()
	n, m := ix.NumNodes(), ix.NumLabels()
	// Size guess: magic + tables + one varint per bucket and per edge.
	dst := make([]byte, 0, 16+12*n+8*m+len(ix.outTo)*3+n*m)
	dst = append(dst, binaryMagic...)
	dst = appendUvarint(dst, uint64(n))
	dst = appendUvarint(dst, uint64(m))
	for _, id := range ix.nodes {
		dst = appendString(dst, string(id))
	}
	for _, lab := range ix.labels {
		dst = appendString(dst, string(lab))
	}
	// Attributes, keyed by node index with sorted keys for determinism.
	withAttrs := make([]int32, 0, len(g.attrs))
	for id, attrs := range g.attrs {
		if len(attrs) == 0 {
			continue
		}
		if i, ok := ix.nodeIdx[id]; ok {
			withAttrs = append(withAttrs, i)
		}
	}
	sort.Slice(withAttrs, func(i, j int) bool { return withAttrs[i] < withAttrs[j] })
	dst = appendUvarint(dst, uint64(len(withAttrs)))
	for _, i := range withAttrs {
		attrs := g.attrs[ix.nodes[i]]
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = appendUvarint(dst, uint64(i))
		dst = appendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = appendString(dst, attrs[k])
		}
	}
	buckets := n * m
	for b := 0; b < buckets; b++ {
		dst = appendUvarint(dst, uint64(ix.outStart[b+1]-ix.outStart[b]))
	}
	for _, to := range ix.outTo {
		dst = appendUvarint(dst, uint64(to))
	}
	return dst
}

// binaryReader walks an encoded payload with bounds checking.
type binaryReader struct {
	data []byte
	off  int
}

func (r *binaryReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("graph: binary payload truncated at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// bounded reads a varint that must not exceed max (a count of items that
// each consume at least one byte, so anything larger is corrupt).
func (r *binaryReader) bounded(max int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("graph: binary payload count %d exceeds remaining %d bytes", v, max)
	}
	return int(v), nil
}

func (r *binaryReader) string() (string, error) {
	v, err := r.uvarint()
	if err != nil {
		return "", err
	}
	// Bound the length by what is left after the length itself: data may
	// be a prefix of a larger buffer, and slicing past its end would read
	// the bytes behind it.
	if v > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("graph: binary payload string of %d bytes exceeds remaining %d", v, len(r.data)-r.off)
	}
	n := int(v)
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s, nil
}

// IsBinaryGraph reports whether data starts with the binary graph magic.
func IsBinaryGraph(data []byte) bool {
	return len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == string(binaryMagic)
}

// ParseBinary decodes a graph from the binary CSR format.
func ParseBinary(data []byte) (*Graph, error) {
	if !IsBinaryGraph(data) {
		return nil, fmt.Errorf("graph: not a binary graph payload")
	}
	r := &binaryReader{data: data, off: len(binaryMagic)}
	n, err := r.bounded(len(data))
	if err != nil {
		return nil, err
	}
	m, err := r.bounded(len(data))
	if err != nil {
		return nil, err
	}
	nodes := make([]NodeID, n)
	g := New()
	for i := range nodes {
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		if i > 0 && s <= string(nodes[i-1]) {
			return nil, fmt.Errorf("graph: binary payload nodes are not sorted")
		}
		nodes[i] = NodeID(s)
		if err := g.AddNode(nodes[i]); err != nil {
			return nil, err
		}
	}
	labels := make([]Label, m)
	for l := range labels {
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		if s == "" {
			return nil, fmt.Errorf("graph: binary payload has an empty label")
		}
		if l > 0 && s <= string(labels[l-1]) {
			return nil, fmt.Errorf("graph: binary payload labels are not sorted")
		}
		labels[l] = Label(s)
	}
	numAttrs, err := r.bounded(len(data))
	if err != nil {
		return nil, err
	}
	for a := 0; a < numAttrs; a++ {
		i, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i >= uint64(n) {
			return nil, fmt.Errorf("graph: binary payload references node %d of %d", i, n)
		}
		count, err := r.bounded(len(data))
		if err != nil {
			return nil, err
		}
		for c := 0; c < count; c++ {
			k, err := r.string()
			if err != nil {
				return nil, err
			}
			v, err := r.string()
			if err != nil {
				return nil, err
			}
			if err := g.SetAttr(nodes[i], k, v); err != nil {
				return nil, err
			}
		}
	}
	degrees := make([]int, n*m)
	for b := range degrees {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		degrees[b] = int(d)
	}
	// Canonical payloads list each bucket's targets strictly increasing (the
	// encoder walks sorted, deduplicated adjacency), which lets the decoder
	// append straight into the out-lists — already ordered by (label, to) —
	// instead of paying AddEdge's per-edge sorted insert. Adjacency is
	// accumulated in index-addressed slices (no per-edge map traffic); the
	// in-lists are sorted once per node at the end.
	outLists := make([][]Edge, n)
	inLists := make([][]Edge, n)
	for b, d := range degrees {
		if d == 0 {
			continue
		}
		ni := b / m
		from := nodes[ni]
		label := labels[b%m]
		prev := -1
		for k := 0; k < d; k++ {
			to, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if to >= uint64(n) {
				return nil, fmt.Errorf("graph: binary payload references node %d of %d", to, n)
			}
			if int(to) <= prev {
				return nil, fmt.Errorf("graph: binary payload bucket %d targets are not strictly increasing", b)
			}
			prev = int(to)
			e := Edge{From: from, Label: label, To: nodes[to]}
			outLists[ni] = append(outLists[ni], e)
			inLists[to] = append(inLists[to], e)
		}
		g.labels[label] += d
		g.edgeCount += d
	}
	for i, id := range nodes {
		if len(outLists[i]) > 0 {
			g.out[id] = outLists[i]
		}
		if in := inLists[i]; len(in) > 0 {
			sort.Slice(in, func(a, b int) bool { return lessIn(in[a], in[b]) })
			g.in[id] = in
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("graph: binary payload has %d trailing bytes", len(data)-r.off)
	}
	return g, nil
}
