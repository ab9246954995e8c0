package graph

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// This file adds loaders for two interchange formats commonly used to ship
// labelled graphs, so that real datasets can be dropped into GPS without
// conversion scripts:
//
//   - CSV/TSV edge lists with a "from,label,to" triple per record;
//   - a triple format in the spirit of N-Triples ("<from> <label> <to> ."),
//     which covers simple RDF exports such as the geographical and
//     biological datasets the paper mentions.

// CSVOptions configures ReadCSV.
type CSVOptions struct {
	// Comma is the field separator; zero means ',' (use '\t' for TSV).
	Comma rune
	// Header skips the first record.
	Header bool
	// Columns gives the 0-based indexes of the from, label and to fields.
	// Nil means columns 0, 1, 2.
	Columns *[3]int
}

// ReadCSV parses a graph from a CSV or TSV edge list.
func ReadCSV(r io.Reader, opts CSVOptions) (*Graph, error) {
	reader := csv.NewReader(r)
	if opts.Comma != 0 {
		reader.Comma = opts.Comma
	}
	reader.FieldsPerRecord = -1
	reader.TrimLeadingSpace = true
	cols := [3]int{0, 1, 2}
	if opts.Columns != nil {
		cols = *opts.Columns
	}
	g := New()
	line := 0
	for {
		record, err := reader.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: csv line %d: %w", line+1, err)
		}
		line++
		if opts.Header && line == 1 {
			continue
		}
		if len(record) == 0 || (len(record) == 1 && strings.TrimSpace(record[0]) == "") {
			continue
		}
		maxCol := cols[0]
		for _, c := range cols {
			if c > maxCol {
				maxCol = c
			}
		}
		if len(record) <= maxCol {
			return nil, fmt.Errorf("graph: csv line %d: need at least %d fields, got %d", line, maxCol+1, len(record))
		}
		from := strings.TrimSpace(record[cols[0]])
		label := strings.TrimSpace(record[cols[1]])
		to := strings.TrimSpace(record[cols[2]])
		if err := g.AddEdge(NodeID(from), Label(label), NodeID(to)); err != nil {
			return nil, fmt.Errorf("graph: csv line %d: %w", line, err)
		}
	}
	return g, nil
}

// ReadTriples parses a graph from a simple triple format: one
// "<subject> <predicate> <object> ." statement per line, where the terms
// may be written bare or wrapped in angle brackets or double quotes. Lines
// starting with '#' and blank lines are ignored. The trailing dot is
// optional.
func ReadTriples(r io.Reader) (*Graph, error) {
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
		line = strings.TrimSuffix(strings.TrimSpace(line), ".")
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: triples line %d: want 3 terms, got %d", lineNo, len(fields))
		}
		from := trimTerm(fields[0])
		label := trimTerm(fields[1])
		to := trimTerm(fields[2])
		if err := g.AddEdge(NodeID(from), Label(label), NodeID(to)); err != nil {
			return nil, fmt.Errorf("graph: triples line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: triples: %w", err)
	}
	return g, nil
}

// trimTerm strips angle brackets or quotes from a triple term and keeps
// only the fragment/local part of an IRI (the text after the last '/' or
// '#'), which gives readable node and label names for typical RDF exports.
func trimTerm(term string) string {
	term = strings.TrimSpace(term)
	if strings.HasPrefix(term, "\"") && strings.HasSuffix(term, "\"") && len(term) >= 2 {
		return term[1 : len(term)-1]
	}
	if strings.HasPrefix(term, "<") && strings.HasSuffix(term, ">") && len(term) >= 2 {
		term = term[1 : len(term)-1]
		if idx := strings.LastIndexAny(term, "/#"); idx >= 0 && idx+1 < len(term) {
			return term[idx+1:]
		}
		return term
	}
	return term
}
