package store

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Record is one entry of a session journal. Data is an opaque JSON payload
// owned by the service layer; Seq numbers records from 1 within a journal.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Journal is an append-only record log with an in-memory tail. Every
// journal keeps its full record list in memory — transcripts are small and
// bounded by the session retention policy — which is what the SSE endpoint
// tails and what recovery replays. A journal created by an Engine is
// additionally backed by frames in the engine's shared segment log and is
// durable before an append returns; a journal created by NewMemJournal has
// the same API with no backing, so SSE works identically in in-memory
// deployments.
//
// All methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	recs   []Record
	notify chan struct{}
	closed bool
	// e is the engine the journal appends to; nil for in-memory journals.
	e *Engine
	// name is the session id ("mem" for in-memory journals).
	name string
}

// NewMemJournal returns a journal with no backing storage.
func NewMemJournal() *Journal {
	return &Journal{notify: make(chan struct{}), name: "mem"}
}

// Append marshals v (nil for payload-less records), assigns the next
// sequence number, makes the record durable (backed journals write and
// sync before the record becomes visible) and wakes every tailer.
func (j *Journal) Append(typ string, v any) error {
	return j.append(typ, v, false)
}

// AppendTerminal appends the journal's terminal record. It behaves like
// Append with one engine-visible hint: the record is synced immediately —
// a terminal record never waits out a group-commit batch window — and the
// engine may treat the session as finished (compaction collapses it to a
// summary record).
func (j *Journal) AppendTerminal(typ string, v any) error {
	return j.append(typ, v, true)
}

func (j *Journal) append(typ string, v any, terminal bool) error {
	var data json.RawMessage
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("store: journal append %s: %w", typ, err)
		}
		data = b
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal %s is closed", j.name)
	}
	rec := Record{Seq: uint64(len(j.recs)) + 1, Type: typ, Data: data}
	if j.e != nil {
		if err := j.e.appendRecord(j.name, rec, terminal); err != nil {
			return fmt.Errorf("store: journal append %s: %w", typ, err)
		}
	}
	j.recs = append(j.recs, rec)
	close(j.notify)
	j.notify = make(chan struct{})
	return nil
}

// After returns the records with Seq > seq and a channel closed on the
// next append. The returned slice is a read-only view.
func (j *Journal) After(seq uint64) ([]Record, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > uint64(len(j.recs)) {
		seq = uint64(len(j.recs))
	}
	return j.recs[seq:], j.notify
}

// Records returns every record as a read-only view.
func (j *Journal) Records() []Record {
	recs, _ := j.After(0)
	return recs
}

// Close ends the journal, keeping the in-memory tail readable. Appending
// to a closed journal fails, and every tailer parked on the
// After channel is woken so it can observe Closed. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closeLocked()
	return nil
}

func (j *Journal) closeLocked() {
	if !j.closed {
		j.closed = true
		close(j.notify) // no appends can follow; wake tailers for good
	}
}

// Closed reports whether the journal was closed (or removed). Since no
// record can be appended afterwards, a tailer that saw Closed *before*
// draining After has seen the final tail.
func (j *Journal) Closed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// Remove closes the journal and deletes its durable trace, if any: the
// engine appends a tombstone frame, so a removed session leaves no
// session for the next recovery to restore (its records stay in their
// segments until compaction).
func (j *Journal) Remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.e != nil {
		err = j.e.tombstone(j.name)
	}
	j.closeLocked()
	return err
}

// RecoveredSession is one journal found on disk: its id and the journal
// reopened for appending with the surviving records preloaded, so a
// resumed session keeps writing where the crashed process stopped.
type RecoveredSession struct {
	ID      string
	Journal *Journal
}
