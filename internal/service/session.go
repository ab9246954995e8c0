package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/interactive"
	"repro/internal/learn"
	"repro/internal/regex"
	"repro/internal/store"
	"repro/internal/user"
)

// Journal record types. Every externally observable state transition of a
// hosted session is appended to its journal — write-ahead on a durable
// service, in-memory otherwise — in the order it takes effect, so the
// journal is simultaneously the crash-recovery log and the event stream
// served by GET /v1/sessions/{id}/events.
const (
	// recCreate opens every journal with the graph name and the resolved
	// session configuration (payload: createRecord).
	recCreate = "create"
	// recQuestion is a question published to the client (payload:
	// Question).
	recQuestion = "question"
	// recAnswer is a client answer, journaled before it is delivered to
	// the learning loop (payload: Answer).
	recAnswer = "answer"
	// recHypothesis is a freshly learned hypothesis (payload:
	// hypothesisRecord).
	recHypothesis = "hypothesis"
	// recDone and recFailed terminate the journal (payload: doneRecord).
	recDone   = "done"
	recFailed = "failed"
)

// createRecord is the payload of the first journal record. Tenant uses the
// wire form (the default tenant is elided), so open-mode journals are
// byte-identical to pre-tenancy ones and recovery rebuilds per-tenant
// accounting from the journal alone.
type createRecord struct {
	Graph  string        `json:"graph"`
	Tenant string        `json:"tenant,omitempty"`
	Config SessionConfig `json:"config"`
}

// hypothesisRecord is the payload of a recHypothesis record.
type hypothesisRecord struct {
	Learned string `json:"learned"`
}

// doneRecord is the payload of the terminal record.
type doneRecord struct {
	Halt    string `json:"halt,omitempty"`
	Learned string `json:"learned,omitempty"`
	Labels  int    `json:"labels"`
	Error   string `json:"error,omitempty"`
}

// SessionStatus is the externally visible state of a hosted session.
type SessionStatus string

// Session states. A manual session cycles running → awaiting-* → running
// as the learning loop asks its questions; a simulated session stays
// running until it converges.
const (
	StatusRunning           SessionStatus = "running"
	StatusAwaitingLabel     SessionStatus = "awaiting-label"
	StatusAwaitingPath      SessionStatus = "awaiting-path"
	StatusAwaitingSatisfied SessionStatus = "awaiting-satisfied"
	StatusDone              SessionStatus = "done"
	StatusFailed            SessionStatus = "failed"
)

// SessionConfig is the client-supplied configuration of a new session.
type SessionConfig struct {
	// Graph names the registered graph to learn on.
	Graph string `json:"graph"`
	// Mode is "manual" (default: a remote client answers the questions) or
	// "simulated" (a server-side oracle pursuing Goal answers them).
	Mode string `json:"mode,omitempty"`
	// Goal is the oracle's hidden goal query. Required for simulated mode;
	// ignored for manual mode.
	Goal string `json:"goal,omitempty"`
	// Strategy is "informative" (default), "random", "hybrid" or
	// "disagreement".
	Strategy string `json:"strategy,omitempty"`
	// Seed drives the random strategy.
	Seed int64 `json:"seed,omitempty"`
	// PathValidation enables the path-validation step after positive
	// labels.
	PathValidation bool `json:"path_validation,omitempty"`
	// MaxInteractions bounds the label interactions (default 100).
	MaxInteractions int `json:"max_interactions,omitempty"`
	// MaxPathLength bounds witness search and informativeness counting.
	MaxPathLength int `json:"max_path_length,omitempty"`
	// InitialRadius is the first neighbourhood radius shown (default 2).
	InitialRadius int `json:"initial_radius,omitempty"`
}

// Question is one pending request for client input in a manual session.
type Question struct {
	// Seq numbers questions within the session; answers carrying a Seq are
	// rejected when it does not match, protecting clients against racing
	// another controller of the same session.
	Seq int `json:"seq"`
	// Kind is "label", "path" or "satisfied".
	Kind string `json:"kind"`
	// Node is the node to label (label and path questions).
	Node graph.NodeID `json:"node,omitempty"`
	// Neighborhood is the text serialisation of the shown fragment.
	Neighborhood string `json:"neighborhood,omitempty"`
	// Frontier lists fragment nodes with hidden edges beyond the radius.
	Frontier []graph.NodeID `json:"frontier,omitempty"`
	// CanZoom reports whether a zoom answer is still allowed.
	CanZoom bool `json:"can_zoom,omitempty"`
	// Words are the candidate paths of interest (path questions).
	Words [][]string `json:"words,omitempty"`
	// Candidate is the word the system would pick (path questions).
	Candidate []string `json:"candidate,omitempty"`
	// Learned is the hypothesis under review (satisfied questions).
	Learned string `json:"learned,omitempty"`
}

// Answer is the client's reply to the pending question.
type Answer struct {
	// Seq, when non-zero, must match the pending question's Seq.
	Seq int `json:"seq,omitempty"`
	// Decision answers a label question: "positive", "negative" or "zoom".
	Decision string `json:"decision,omitempty"`
	// Word answers a path question with an explicit word; Accept answers
	// it with the system's candidate.
	Word   []string `json:"word,omitempty"`
	Accept bool     `json:"accept,omitempty"`
	// Satisfied answers a satisfied question.
	Satisfied *bool `json:"satisfied,omitempty"`
}

// SessionView is the JSON-facing snapshot of a hosted session.
type SessionView struct {
	ID       string        `json:"id"`
	Graph    string        `json:"graph"`
	Tenant   string        `json:"tenant,omitempty"`
	Mode     string        `json:"mode"`
	Strategy string        `json:"strategy"`
	Status   SessionStatus `json:"status"`
	Labels   int           `json:"labels"`
	Learned  string        `json:"learned,omitempty"`
	Halt     string        `json:"halt,omitempty"`
	Error    string        `json:"error,omitempty"`
	Pending  *Question     `json:"pending,omitempty"`
}

// HostedSession is one interactive learning session: an
// interactive.Machine plus the question/answer state a client sees. No
// goroutine waits on a client. Creating the session, and each answer,
// starts one goroutine that runs the machine to its next question or its
// end, journals and publishes it, and exits; a simulated session's
// goroutine answers with the server-side oracle until the loop ends. All
// exported methods are safe for concurrent use.
type HostedSession struct {
	id     string
	handle *GraphHandle
	// tenant owns the session; its live-slot accounting is released when
	// the session finishes.
	tenant string
	cfg    SessionConfig
	// mgr owns the session; its tracer records the session's lifecycle
	// spans (question waits, learner phases, replay).
	mgr *Manager
	// done is closed when the session finishes, after the manager has
	// accounted for it.
	done chan struct{}
	// journal records every state transition; see the rec* constants.
	journal *store.Journal

	// turn is held by the goroutine advancing the machine, from applying an
	// answer through journaling the next question, so the records of
	// successive turns land in the order the loop produced them.
	turn    sync.Mutex
	machine *interactive.Machine
	// oracle answers a simulated session's questions; nil in manual mode.
	oracle user.User

	mu      sync.Mutex
	status  SessionStatus
	seq     int
	pending *Question
	// asked is when the pending question was published.
	asked   time.Time
	labels  int
	learned string
	halt    string
	errMsg  string
	// fatal is set when the session must die with an error (a journal write
	// failure, a learner failure, a resume that diverged from its journal);
	// canceled when it was canceled. The next turn finishes the session.
	fatal    string
	canceled bool
}

// View returns a consistent snapshot of the session state.
func (s *HostedSession) View() SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SessionView{
		ID:       s.id,
		Graph:    s.handle.Name(),
		Tenant:   wireTenant(s.tenant),
		Mode:     s.cfg.Mode,
		Strategy: s.cfg.Strategy,
		Status:   s.status,
		Labels:   s.labels,
		Learned:  s.learned,
		Halt:     s.halt,
		Error:    s.errMsg,
	}
	if s.pending != nil {
		q := *s.pending
		v.Pending = &q
	}
	return v
}

// Cancel stops the session: it halts with "canceled" right away when it
// waits on a client, and after the running turn otherwise.
func (s *HostedSession) Cancel() {
	s.mu.Lock()
	parked := s.pending != nil
	s.pending = nil
	s.canceled = true
	s.mu.Unlock()
	if parked {
		s.startTurn(nil)
	}
}

// Journal returns the session's event journal (the SSE endpoint tails it).
func (s *HostedSession) Journal() *store.Journal { return s.journal }

// fail records why the session must die; the first reason wins.
func (s *HostedSession) fail(err error) {
	s.mu.Lock()
	if s.fatal == "" {
		s.fatal = err.Error()
	}
	s.mu.Unlock()
}

func (s *HostedSession) stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canceled || s.fatal != ""
}

// startTurn starts the goroutine that applies a (nil: no answer) to the
// machine and runs it to its next question or its end.
func (s *HostedSession) startTurn(a *interactive.Answer) {
	go func() {
		s.turn.Lock()
		defer s.turn.Unlock()
		s.advance(a, nil)
	}()
}

// start runs the session's first turn in its own goroutine: it builds the
// learning loop, folds a resumed session's journaled records (disk; nil for
// a new session) back through it, and runs it to the first question for
// the client or to its end.
func (s *HostedSession) start(strat interactive.Strategy, disk *journaled) {
	go func() {
		s.turn.Lock()
		defer s.turn.Unlock()
		started := time.Now()
		s.machine = s.mgr.newMachine(s, strat)
		s.advance(nil, disk)
		if disk != nil && len(disk.questions) > 0 {
			s.mgr.tr.replayDone(s.id, time.Since(started), len(disk.questions))
		}
	}()
}

// journaled is what a resumed session's journal already holds: the answers
// to fold back through the machine, the questions they answered, and the
// learned query of each hypothesis record. A regenerated record that is
// already on disk is compared with it, never appended twice.
type journaled struct {
	answers   []Answer
	questions []Question
	hyps      []string
	// hypsSeen counts the hypotheses regenerated so far.
	hypsSeen int
}

// advance applies a to the machine's pending question, then runs the loop:
// each question is answered by the oracle (simulated mode) or by the next
// journaled answer (resume), until one must go to the client — it is
// journaled and published, and advance returns — or the loop ends and the
// session finishes. A hypothesis is journaled when the satisfied question
// carrying it comes up. The caller holds s.turn.
func (s *HostedSession) advance(a *interactive.Answer, disk *journaled) {
	if disk == nil {
		disk = &journaled{}
	}
	for {
		q, ok := s.machine.Next()
		if !ok || s.stopped() {
			break
		}
		if a != nil {
			if q.Kind == interactive.AskLabel && a.Decision != user.Zoom {
				s.mu.Lock()
				s.labels++
				s.mu.Unlock()
			}
			if err := s.machine.Answer(*a); err != nil {
				s.fail(err)
				break
			}
			a = nil
			continue
		}
		if q.Kind == interactive.AskSatisfied {
			learned := q.Learned.String()
			s.mu.Lock()
			s.learned = learned
			s.mu.Unlock()
			if disk.hypsSeen < len(disk.hyps) {
				disk.hypsSeen++
				if jl := disk.hyps[disk.hypsSeen-1]; jl != learned {
					s.fail(fmt.Errorf("service: resume diverged at hypothesis %d: journal learned %q, loop learned %q",
						disk.hypsSeen, jl, learned))
					break
				}
			} else {
				s.mgr.log.Debug("hypothesis", "session_id", s.id, "learned", learned)
				if err := s.journal.Append(recHypothesis, hypothesisRecord{Learned: learned}); err != nil {
					s.fail(err)
					break
				}
			}
		}
		if s.oracle != nil {
			ans := interactive.Ask(s.oracle, q)
			a = &ans
			continue
		}
		wq, st := wireQuestion(q)
		s.mu.Lock()
		s.seq++
		wq.Seq = s.seq
		s.mu.Unlock()
		onDisk := wq.Seq <= len(disk.questions)
		if onDisk {
			if err := sameQuestion(&disk.questions[wq.Seq-1], wq); err != nil {
				s.fail(fmt.Errorf("service: resume diverged at question %d: %w", wq.Seq, err))
				break
			}
		}
		if len(disk.answers) > 0 {
			// A journaled answer can exist without its question's record
			// (the answer's append can win the journal mutex, or the crash
			// landed between the two). Re-journal the question now, or a
			// second crash would pair this position against the next
			// question's record.
			if !onDisk {
				if err := s.journal.Append(recQuestion, wq); err != nil {
					s.fail(err)
					break
				}
			}
			ans := machineAnswer(disk.answers[0])
			disk.answers = disk.answers[1:]
			a = &ans
			continue
		}
		if !s.publish(wq, st, !onDisk) {
			break
		}
		return
	}
	s.finish()
}

// publish parks the session on q and journals it unless its record already
// exists. The question is published before the journal append wakes the
// SSE tailers: a stream-driven client that answers the moment it sees the
// question event must find it answerable, not get a 409. If the answer's
// record then lands first, recovery still pairs them by order within their
// types. publish reports false on a canceled session, and when the append
// fails before a client took the question: the caller then finishes the
// session; otherwise the goroutine the taker started does.
func (s *HostedSession) publish(q *Question, st SessionStatus, journal bool) bool {
	s.mu.Lock()
	if s.canceled {
		s.mu.Unlock()
		return false
	}
	s.pending = q
	s.status = st
	s.asked = time.Now()
	s.mu.Unlock()
	if !journal {
		return true
	}
	if err := s.journal.Append(recQuestion, q); err != nil {
		s.fail(err)
		s.mu.Lock()
		taken := s.pending != q
		s.pending = nil
		s.mu.Unlock()
		return taken
	}
	return true
}

// finish journals the terminal record, then publishes the final status,
// frees the session's slot and closes done. The caller holds s.turn.
func (s *HostedSession) finish() {
	t := s.machine.Transcript()
	if _, asking := s.machine.Next(); asking {
		t.Halt = interactive.HaltCanceled
	}
	// A finished session is retained for inspection; its loop state (the
	// sample, coverage and oracle) is not.
	s.machine, s.oracle = nil, nil
	s.mu.Lock()
	terminal, final := recDone, doneRecord{Halt: string(t.Halt), Learned: s.learned, Labels: t.Labels()}
	if t.Final != nil {
		final.Learned = t.Final.String()
	}
	if s.fatal != "" {
		terminal, final = recFailed, doneRecord{Error: s.fatal, Learned: s.learned, Labels: s.labels}
	}
	s.mu.Unlock()
	// The terminal record is journaled before the status is published: a
	// client that sees done or failed must find the record on disk, or a
	// crash in between would re-run a session it saw finish. Best effort:
	// the record of a session torn down by Remove may land on an
	// already-removed journal. AppendTerminal lets the engine fsync
	// immediately (no group-commit window) and mark the session finished
	// for compaction.
	_ = s.journal.AppendTerminal(terminal, final)
	s.mu.Lock()
	s.status, s.halt, s.learned, s.labels, s.errMsg = StatusDone, final.Halt, final.Learned, final.Labels, final.Error
	log, msg := s.mgr.log.Info, "session finished"
	if terminal == recFailed {
		s.status, log, msg = StatusFailed, s.mgr.log.Warn, "session failed"
	}
	s.mu.Unlock()
	log(msg, "session_id", s.id, "graph", s.handle.Name(), "halt", final.Halt, "error", final.Error,
		"labels", final.Labels, "learned", final.Learned)
	_ = s.journal.Close()
	s.mgr.noteFinished(s)
	close(s.done)
}

// wireQuestion renders a machine question for the client, with the status
// a session waiting on it shows.
func wireQuestion(q interactive.Question) (*Question, SessionStatus) {
	switch q.Kind {
	case interactive.AskLabel:
		w := &Question{Kind: "label", Node: q.Node, CanZoom: q.CanZoom}
		if n := q.Neighborhood; n != nil {
			w.Neighborhood = n.Fragment.Text()
			w.Frontier = n.Frontier
		}
		return w, StatusAwaitingLabel
	case interactive.AskPath:
		return &Question{Kind: "path", Node: q.Node, Words: q.Words, Candidate: q.Candidate}, StatusAwaitingPath
	default:
		return &Question{Kind: "satisfied", Learned: q.Learned.String()}, StatusAwaitingSatisfied
	}
}

// sameQuestion compares a journaled question with its regenerated wire
// payload in full: two questions that encode to different JSON differ.
// The error names the first field that differs.
func sameQuestion(journal, loop *Question) error {
	jb, err := json.Marshal(journal)
	if err != nil {
		return err
	}
	lb, err := json.Marshal(loop)
	if err != nil {
		return err
	}
	if bytes.Equal(jb, lb) {
		return nil
	}
	var jf, lf map[string]json.RawMessage
	if err := json.Unmarshal(jb, &jf); err != nil {
		return err
	}
	if err := json.Unmarshal(lb, &lf); err != nil {
		return err
	}
	keys := make([]string, 0, len(jf)+len(lf))
	for k := range jf {
		keys = append(keys, k)
	}
	for k := range lf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(jf[k], lf[k]) {
			return fmt.Errorf("%s differs: journal has %s, loop has %s", k, orAbsent(jf[k]), orAbsent(lf[k]))
		}
	}
	return fmt.Errorf("payloads differ")
}

// orAbsent renders a JSON field value for an error, "absent" when missing.
func orAbsent(v json.RawMessage) string {
	if v == nil {
		return "absent"
	}
	return string(v)
}

// machineAnswer reads a client answer as the machine's: an accepted path
// answer takes the system's candidate.
func machineAnswer(a Answer) interactive.Answer {
	ma := interactive.Answer{Decision: user.Negative, Satisfied: a.Satisfied != nil && *a.Satisfied}
	switch a.Decision {
	case "positive":
		ma.Decision = user.Positive
	case "zoom":
		ma.Decision = user.Zoom
	}
	if !a.Accept {
		ma.Word = a.Word
	}
	return ma
}

// ErrConflict marks answer failures caused by session state (no pending
// question, stale sequence number) rather than by a malformed answer; the
// HTTP layer maps it to 409 and everything else to 400.
var ErrConflict = errors.New("state conflict")

// ErrLimit marks session creation rejected for capacity reasons; the HTTP
// layer maps it to 429 so clients know the request was well-formed and
// retryable.
var ErrLimit = errors.New("session limit reached")

// ErrStore marks failures of the durable layer (journal or snapshot
// writes); the HTTP layer maps it to 500.
var ErrStore = errors.New("store failure")

// Answer takes the client's reply to the pending question and starts the
// turn that applies it. On a durable service the answer is journaled
// first: once the client has seen this call succeed, the answer survives a
// crash.
func (s *HostedSession) Answer(a Answer) error {
	s.mu.Lock()
	if s.pending == nil {
		s.mu.Unlock()
		return fmt.Errorf("service: session %s has no pending question (status %s): %w", s.id, s.status, ErrConflict)
	}
	if a.Seq != 0 && a.Seq != s.pending.Seq {
		err := fmt.Errorf("service: answer for question %d but question %d is pending: %w", a.Seq, s.pending.Seq, ErrConflict)
		s.mu.Unlock()
		return err
	}
	var err error
	switch s.pending.Kind {
	case "label":
		switch a.Decision {
		case "positive", "negative":
		case "zoom":
			if !s.pending.CanZoom {
				err = fmt.Errorf("service: the radius limit is reached, answer positive or negative")
			}
		default:
			err = fmt.Errorf("service: label answer needs decision positive, negative or zoom (got %q)", a.Decision)
		}
	case "path":
		if len(a.Word) == 0 && !a.Accept {
			err = fmt.Errorf("service: path answer needs a word or accept=true")
		}
	case "satisfied":
		if a.Satisfied == nil {
			err = fmt.Errorf("service: satisfied answer needs satisfied=true|false")
		}
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	q := s.pending
	s.pending = nil
	s.status = StatusRunning
	asked := s.asked
	s.mu.Unlock()
	// Write-ahead: the answer must be durable before the learner acts on
	// it. The fsync happens outside the session lock so views are not
	// blocked.
	if err := s.journal.Append(recAnswer, a); err != nil {
		s.fail(err)
		s.startTurn(nil)
		return fmt.Errorf("service: %w: %w", ErrStore, err)
	}
	s.mgr.tr.questionAnswered(s.id, q.Kind, time.Since(asked))
	ma := machineAnswer(a)
	s.startTurn(&ma)
	return nil
}

// Manager owns the hosted sessions. Live sessions are bounded by
// Options.MaxSessions; finished sessions are retained for inspection up to
// the same bound and then evicted oldest-first, so a long-running daemon
// neither leaks session state nor pins replaced graphs (and their engine
// caches) forever.
type Manager struct {
	opts Options
	// log and tr are the manager's structured logger and session tracer
	// (trace.go); both resolve from the options' shared registry/logger.
	log *slog.Logger
	tr  *tracer

	mu       sync.Mutex
	sessions map[string]*HostedSession
	nextID   int
	// live counts sessions that have not finished; it makes the
	// MaxSessions admission check O(1).
	live int
	// tenants and vtime are the fair-share admission state (admit.go):
	// per-tenant live counts, quotas, stride passes and pending queues.
	tenants map[string]*tenantState
	vtime   float64
	// finishedIDs is the FIFO eviction order of retained finished
	// sessions.
	finishedIDs []string
}

// NewManager returns an empty session manager.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	return &Manager{
		opts:     opts,
		log:      opts.Logger,
		tr:       newTracer(opts.Metrics, opts.Logger),
		sessions: make(map[string]*HostedSession),
		tenants:  make(map[string]*tenantState),
	}
}

// noteFinished is called exactly once by each session as it finishes: it
// frees the live slot (waking fair-share waiters) and enrolls the session
// in the bounded finished-retention queue.
func (m *Manager) noteFinished(s *HostedSession) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(s.tenant)
	if _, ok := m.sessions[s.id]; !ok {
		return // already removed explicitly
	}
	m.finishedIDs = append(m.finishedIDs, s.id)
	m.evictFinishedLocked()
}

// evictFinishedLocked trims the finished-retention queue to MaxSessions,
// deleting each evicted session's journal so the on-disk state mirrors the
// retention policy (an evicted session is not resurrected at recovery).
func (m *Manager) evictFinishedLocked() {
	for len(m.finishedIDs) > m.opts.MaxSessions {
		evict := m.finishedIDs[0]
		m.finishedIDs = m.finishedIDs[1:]
		if s, ok := m.sessions[evict]; ok {
			_ = s.journal.Remove()
		}
		delete(m.sessions, evict)
	}
}

// newJournal builds the journal of a new session: file-backed on a durable
// service, in-memory otherwise.
func (m *Manager) newJournal(id string) (*store.Journal, error) {
	if m.opts.Store == nil {
		return store.NewMemJournal(), nil
	}
	return m.opts.Store.CreateJournal(id)
}

func parseQuery(s string) (*regex.Expr, error) {
	if s == "" {
		return nil, fmt.Errorf("service: empty query")
	}
	q, err := regex.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return q, nil
}

// CreateFor starts a new hosted session on the graph, charged to the
// tenant's quota and fair-share account. The session's first turn runs in
// its own goroutine: a manual session parks on its first question, a
// simulated one runs until the loop ends.
func (m *Manager) CreateFor(tn TenantInfo, h *GraphHandle, cfg SessionConfig) (*HostedSession, error) {
	if cfg.Mode == "" {
		cfg.Mode = "manual"
	}
	strat, err := interactive.StrategyByName(cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	cfg.Strategy = strat.Name()
	var goal *regex.Expr
	switch cfg.Mode {
	case "manual":
	case "simulated":
		if goal, err = parseQuery(cfg.Goal); err != nil {
			return nil, fmt.Errorf("service: simulated session needs a goal query: %w", err)
		}
	default:
		return nil, fmt.Errorf("service: unknown session mode %q (want manual or simulated)", cfg.Mode)
	}

	if err := m.admit(tn); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("s%04d", m.nextID)
	m.mu.Unlock()

	jr, err := m.newJournal(id)
	if err == nil {
		err = jr.Append(recCreate, createRecord{Graph: h.Name(), Tenant: wireTenant(tn.Name), Config: cfg})
	}
	if err != nil {
		if jr != nil {
			_ = jr.Remove()
		}
		m.mu.Lock()
		m.releaseLocked(tn.Name)
		m.mu.Unlock()
		return nil, fmt.Errorf("service: %w: %w", ErrStore, err)
	}

	s := m.newSession(id, h, tn.Name, cfg, jr, goal)
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	m.log.Info("session created",
		"session_id", id, "graph", h.Name(), "tenant", tn.Name, "mode", cfg.Mode, "strategy", cfg.Strategy)
	s.start(strat, nil)
	return s, nil
}

// newSession builds a running session around its journal; goal is the
// simulated oracle's goal (nil in manual mode). Shared by CreateFor and
// Restore.
func (m *Manager) newSession(id string, h *GraphHandle, tenant string, cfg SessionConfig, jr *store.Journal, goal *regex.Expr) *HostedSession {
	s := &HostedSession{
		id:      id,
		handle:  h,
		tenant:  tenant,
		cfg:     cfg,
		mgr:     m,
		done:    make(chan struct{}),
		journal: jr,
		status:  StatusRunning,
	}
	if goal != nil {
		s.oracle = user.NewSimulatedWith(h.Graph(), goal, h.Cache())
	}
	return s
}

// newMachine starts the session's learning loop, which computes its first
// question.
func (m *Manager) newMachine(s *HostedSession, strat interactive.Strategy) *interactive.Machine {
	h := s.handle
	opts := interactive.Options{
		Strategy:        strat,
		InitialRadius:   s.cfg.InitialRadius,
		PathValidation:  s.cfg.PathValidation,
		MaxInteractions: s.cfg.MaxInteractions,
		Learn:           learn.Options{MaxPathLength: s.cfg.MaxPathLength},
		Cache:           h.Cache(),
	}
	opts.Learn.Trace = func(phase string, d time.Duration) {
		m.tr.learnPhaseDone(s.id, phase, d)
	}
	return interactive.NewMachine(h.Graph(), opts)
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*HostedSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Remove cancels the session, drops it from the manager and deletes its
// journal: an explicitly removed session does not come back at recovery.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	// Purge the id from the finished-retention queue so a stale entry does
	// not consume one of the documented retention slots.
	for i, fid := range m.finishedIDs {
		if fid == id {
			m.finishedIDs = append(m.finishedIDs[:i], m.finishedIDs[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	if ok {
		s.Cancel()
		_ = s.journal.Remove()
	}
	return ok
}

// List returns a snapshot of every session sorted by id.
func (m *Manager) List() []SessionView {
	m.mu.Lock()
	sessions := make([]*HostedSession, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]SessionView, len(sessions))
	for i, s := range sessions {
		out[i] = s.View()
	}
	return out
}
