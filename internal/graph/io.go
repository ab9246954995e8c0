package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The text format is a line-oriented edge list:
//
//	# comment
//	node <id> [key=value ...]
//	edge <from> <label> <to>
//
// Blank lines and lines starting with '#' are ignored. A bare "node" line
// is only needed for isolated nodes or to attach attributes.

// WriteText serialises the graph in the line-oriented text format.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, id := range g.Nodes() {
		attrs := g.attrs[id]
		if len(attrs) == 0 {
			if g.OutDegree(id) == 0 && g.InDegree(id) == 0 {
				if _, err := fmt.Fprintf(bw, "node %s\n", id); err != nil {
					return err
				}
			}
			continue
		}
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%s", k, attrs[k]))
		}
		if _, err := fmt.Fprintf(bw, "node %s %s\n", id, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "edge %s %s %s\n", e.From, e.Label, e.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Text returns the text serialisation as a string.
func (g *Graph) Text() string {
	var sb strings.Builder
	if err := g.WriteText(&sb); err != nil {
		panic(err) // strings.Builder never fails
	}
	return sb.String()
}

// ReadText parses a graph from the line-oriented text format.
func ReadText(r io.Reader) (*Graph, error) {
	g := New()
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: node requires an id", lineNo)
			}
			id := NodeID(fields[1])
			if err := g.AddNode(id); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("graph: line %d: malformed attribute %q", lineNo, kv)
				}
				if err := g.SetAttr(id, k, v); err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
				}
			}
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: edge requires <from> <label> <to>", lineNo)
			}
			if err := g.AddEdge(NodeID(fields[1]), Label(fields[2]), NodeID(fields[3])); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return g, nil
}

// ParseText parses a graph from a string in the text format.
func ParseText(s string) (*Graph, error) {
	return ReadText(strings.NewReader(s))
}
