package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Record is one entry of a session journal. Data is an opaque JSON payload
// owned by the service layer; Seq numbers records from 1 within a journal.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// journalBackend is the durable half of a Journal, supplied by the engine
// that created it. append must make the record durable before returning
// (write-ahead discipline); terminal marks the journal's last record,
// which engines may use to bypass group-commit batching and to recognise
// finished sessions during compaction.
type journalBackend interface {
	append(rec Record, terminal bool) error
	close() error
	remove() error
}

// Journal is an append-only record log with an in-memory tail. Every
// journal keeps its full record list in memory — transcripts are small and
// bounded by the session retention policy — which is what the SSE endpoint
// tails and what recovery replays. A journal created by an Engine is
// additionally backed by durable storage (a JSONL file on the text engine,
// frames in the shared segment log on the binary engine) and is durable
// before an append returns; a journal created by NewMemJournal has the
// same API with no backing, so SSE works identically in in-memory
// deployments.
//
// All methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	recs   []Record
	notify chan struct{}
	closed bool
	// b is nil for in-memory journals.
	b journalBackend
	// name labels errors: the session id (binary engine) or file path
	// (text engine).
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
	if j.b != nil {
		if err := j.b.append(rec, terminal); err != nil {
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

// Close releases the backing storage, keeping the in-memory tail readable.
// Appending to a closed journal fails, and every tailer parked on the
// After channel is woken so it can observe Closed. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closeLocked()
}

func (j *Journal) closeLocked() error {
	if j.closed {
		return nil
	}
	j.closed = true
	close(j.notify) // no appends can follow; wake tailers for good
	if j.b != nil {
		return j.b.close()
	}
	return nil
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
// text engine unlinks the JSONL file, the binary engine appends a
// tombstone frame. A removed session leaves no session for the next
// recovery to restore.
func (j *Journal) Remove() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.b == nil {
		return j.closeLocked()
	}
	// Remove before close: the binary backend's tombstone is itself an
	// append, which a closed backend would refuse.
	err := j.b.remove()
	if cErr := j.closeLocked(); cErr != nil && err == nil {
		err = cErr
	}
	return err
}

// fileJournal is the text engine's journal backend: one JSONL file with
// one fsync per append.
type fileJournal struct {
	f    *os.File
	path string
	m    *metrics
}

func (fj *fileJournal) append(rec Record, terminal bool) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := fj.f.Write(line); err != nil {
		return err
	}
	start := time.Now()
	if err := fj.f.Sync(); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	fj.m.fsyncs.Add(1)
	fj.m.fsyncNanos.Add(time.Since(start).Nanoseconds())
	fj.m.journalAppends.Add(1)
	fj.m.journalBytes.Add(int64(len(line)))
	return nil
}

func (fj *fileJournal) close() error { return fj.f.Close() }

func (fj *fileJournal) remove() error {
	var err error
	if rmErr := os.Remove(fj.path); rmErr != nil && !os.IsNotExist(rmErr) {
		err = rmErr
	}
	if sErr := syncDir(filepath.Dir(fj.path)); sErr != nil && err == nil {
		err = sErr
	}
	return err
}

// journalFile maps a session id to its journal path; ids are path-escaped
// so an id can never climb out of the sessions directory.
func (s *Store) journalFile(id string) string {
	return filepath.Join(s.sessionsDir(), url.PathEscape(id)+".jsonl")
}

// CreateJournal creates the journal file for a new session. The id must be
// new: an existing journal is never silently overwritten.
func (s *Store) CreateJournal(id string) (*Journal, error) {
	if id == "" {
		return nil, fmt.Errorf("store: empty journal id")
	}
	path := s.journalFile(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create journal %s: %w", id, err)
	}
	// Make the directory entry durable too, or a power loss could drop
	// the whole journal file despite every append being fsynced.
	if err := syncDir(s.sessionsDir()); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: create journal %s: %w", id, err)
	}
	return &Journal{notify: make(chan struct{}), name: path, b: &fileJournal{f: f, path: path, m: &s.m}}, nil
}

// RecoveredSession is one journal found on disk: its id and the journal
// reopened for appending with the surviving records preloaded, so a
// resumed session keeps writing where the crashed process stopped.
type RecoveredSession struct {
	ID      string
	Journal *Journal
}

// RecoverSessions scans the sessions directory and replays every journal,
// sorted by session id. A journal whose tail is torn (a partial final
// line, a corrupt record, a sequence gap) is truncated to its longest
// valid prefix — write-ahead appends make everything after the first bad
// byte untrustworthy — and counted in TruncatedJournals. Unreadable files
// abort recovery: the caller should not serve from a half-read store.
func (s *Store) RecoverSessions() ([]RecoveredSession, error) {
	return recoverSessionDir(s.sessionsDir(), &s.m)
}

// recoverSessionDir replays every JSONL journal in a sessions directory.
// Shared by the text engine and the binary engine's legacy-journal
// migration (a data directory switched from -store-engine text must not
// silently abandon its sessions).
func recoverSessionDir(dir string, m *metrics) ([]RecoveredSession, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: recover sessions: %w", err)
	}
	out := make([]RecoveredSession, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		id, err := url.PathUnescape(strings.TrimSuffix(name, ".jsonl"))
		if err != nil {
			id = strings.TrimSuffix(name, ".jsonl")
		}
		// Recover from the enumerated path, not one rebuilt from the id: a
		// foreign file whose name is not a PathEscape fixed point would
		// otherwise be looked up at the wrong path and abort recovery.
		jr, err := recoverJournalFile(id, filepath.Join(dir, name), m)
		if err != nil {
			return nil, err
		}
		m.recoveredSessions.Add(1)
		out = append(out, RecoveredSession{ID: id, Journal: jr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// recoverJournalFile replays one JSONL journal file, truncates any torn
// tail and reopens the file for appending. The file is streamed line by
// line — recovery memory is bounded by the longest line, not the journal
// size.
func recoverJournalFile(id, path string, m *metrics) (*Journal, error) {
	rf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: recover journal %s: %w", id, err)
	}
	fi, err := rf.Stat()
	if err != nil {
		rf.Close()
		return nil, fmt.Errorf("store: recover journal %s: %w", id, err)
	}
	var recs []Record
	var valid int64 // byte length of the valid prefix
	br := bufio.NewReaderSize(rf, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // no trailing newline: the append crashed mid-write
		}
		if err != nil {
			rf.Close()
			return nil, fmt.Errorf("store: recover journal %s: %w", id, err)
		}
		var rec Record
		if err := json.Unmarshal(line[:len(line)-1], &rec); err != nil {
			break
		}
		if rec.Seq != uint64(len(recs))+1 {
			break // sequence gap: records after it cannot be trusted
		}
		recs = append(recs, rec)
		valid += int64(len(line))
	}
	rf.Close()
	truncated := valid < fi.Size()
	if truncated {
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("store: truncate journal %s: %w", id, err)
		}
		m.truncatedJournals.Add(1)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: reopen journal %s: %w", id, err)
	}
	// Make the truncation durable before anything is appended after it.
	if truncated {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reopen journal %s: %w", id, err)
		}
	}
	return &Journal{notify: make(chan struct{}), recs: recs, name: path, b: &fileJournal{f: f, path: path, m: m}}, nil
}
