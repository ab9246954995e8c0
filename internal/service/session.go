package service

import (
	"context"
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

// HostedSession is one interactive learning loop running in its own
// goroutine. All exported methods are safe for concurrent use.
type HostedSession struct {
	id     string
	handle *GraphHandle
	// tenant owns the session; its live-slot accounting is released when
	// the learning goroutine exits.
	tenant string
	cfg    SessionConfig
	cancel context.CancelFunc
	// done is closed when the learning goroutine exits, after the manager
	// has accounted for the finished session.
	done chan struct{}
	// journal records every state transition; see the rec* constants.
	journal *store.Journal
	// tr records lifecycle spans (question waits, learner phases, replay)
	// into the manager's tracer; nil only on sessions built outside the
	// manager.
	tr *tracer

	mu        sync.Mutex
	status    SessionStatus
	seq       int
	pending   *Question
	pendingCh chan Answer
	labels    int
	learned   string
	halt      string
	errMsg    string
	// fatal is set when the session must die with an error that the
	// learning loop itself cannot observe (journal write failure, journal
	// divergence during resume); fail() records it and cancels the loop.
	fatal string
	// replay drives a resumed session back to its pre-crash state; nil on
	// sessions created normally and after replay completes.
	replay *replayState
}

// replayState carries what recovery read from a resumed session's journal:
// the answers to re-feed to the regenerated questions, the journaled
// questions themselves (for divergence detection and to suppress
// re-journaling records that already exist), and how many hypothesis
// records are already on disk.
type replayState struct {
	answers   []Answer
	questions []Question
	hypSkip   int
	// started clocks the replay span from Restore to the point the loop
	// catches up with the journal.
	started time.Time
}

// ID returns the session identifier.
func (s *HostedSession) ID() string { return s.id }

// Done returns a channel closed when the session's learning loop exits.
func (s *HostedSession) Done() <-chan struct{} { return s.done }

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

// Learned returns the current hypothesis query string ("" if none yet).
func (s *HostedSession) Learned() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.learned
}

// Cancel stops the learning loop; the session halts with "canceled" after
// the in-flight interaction finishes.
func (s *HostedSession) Cancel() { s.cancel() }

// Journal returns the session's event journal (the SSE endpoint tails it).
func (s *HostedSession) Journal() *store.Journal { return s.journal }

// fail marks the session as fatally broken and cancels its learning loop.
// Safe to call from any goroutine; the first recorded reason wins.
func (s *HostedSession) fail(err error) {
	s.mu.Lock()
	if s.fatal == "" {
		s.fatal = err.Error()
	}
	s.mu.Unlock()
	s.cancel()
}

// ask publishes a question, parks the learning goroutine until a client
// answers it (or the session is canceled) and returns the answer.
//
// On a resumed session, the journaled answers are re-fed here without ever
// publishing: the learning loop regenerates the same questions it asked
// before the crash (every strategy is deterministic given the restored
// graph and the seed), each is checked against its journaled counterpart,
// and a question whose record already exists on disk is not re-journaled,
// so the journal stays free of duplicates across any number of crashes.
func (s *HostedSession) ask(ctx context.Context, q *Question, st SessionStatus) (Answer, bool) {
	ch := make(chan Answer, 1)
	var replayDone bool
	var replayD time.Duration
	var replayQuestions int
	s.mu.Lock()
	s.seq++
	q.Seq = s.seq
	journalQ := true
	if r := s.replay; r != nil {
		if s.seq <= len(r.questions) {
			jq := r.questions[s.seq-1]
			if jq.Kind != q.Kind || jq.Node != q.Node {
				s.mu.Unlock()
				s.fail(fmt.Errorf("service: resume diverged at question %d: journal asked %s %q, loop asked %s %q",
					s.seq, jq.Kind, jq.Node, q.Kind, q.Node))
				return Answer{}, false
			}
			journalQ = false
		}
		if len(r.answers) > 0 {
			a := r.answers[0]
			r.answers = r.answers[1:]
			s.mu.Unlock()
			// A journaled answer can exist without its question's record
			// (the answer's append can win the journal mutex, or the crash
			// landed between the two). Re-journal the question now, or a
			// second crash would pair this position against the next
			// question's record and trip the divergence guard.
			if journalQ {
				if err := s.journal.Append(recQuestion, q); err != nil {
					s.fail(err)
					return Answer{}, false
				}
			}
			return a, true
		}
		if s.seq >= len(r.questions) {
			// Replay complete: every journaled answer is consumed and the
			// loop has caught up with the journaled questions.
			s.replay = nil
			replayDone = true
			replayD = time.Since(r.started)
			replayQuestions = s.seq - 1
		}
	}
	// Publish the pending question before the journal append wakes the SSE
	// tailers: a stream-driven client that answers the moment it sees the
	// question event must find the question answerable, not get a 409. If
	// the concurrent answer's journal record then lands before the
	// question's, recovery still pairs them correctly (questions and
	// answers replay by order within their types, and a question whose
	// record was lost to the crash is deterministically re-asked and
	// re-journaled).
	s.pending = q
	s.pendingCh = ch
	s.status = st
	s.mu.Unlock()
	if replayDone && s.tr != nil {
		s.tr.replayDone(s.id, replayD, replayQuestions)
	}
	published := time.Now()
	if journalQ {
		if err := s.journal.Append(recQuestion, q); err != nil {
			s.mu.Lock()
			s.pending = nil
			s.pendingCh = nil
			s.mu.Unlock()
			s.fail(err)
			return Answer{}, false
		}
	}
	select {
	case a := <-ch:
		s.mu.Lock()
		s.status = StatusRunning
		s.mu.Unlock()
		if s.tr != nil {
			s.tr.questionAnswered(s.id, q.Kind, time.Since(published))
		}
		return a, true
	case <-ctx.Done():
		s.mu.Lock()
		s.pending = nil
		s.pendingCh = nil
		s.status = StatusRunning
		s.mu.Unlock()
		return Answer{}, false
	}
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

// Answer delivers the client's reply to the pending question. On a durable
// service the answer is journaled before it reaches the learning loop:
// once the client has seen this call succeed, the answer survives a crash.
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
	ch := s.pendingCh
	s.pending = nil
	s.pendingCh = nil
	s.mu.Unlock()
	// Write-ahead: the answer must be durable before the loop acts on it.
	// The fsync happens outside the session lock so views are not blocked.
	if err := s.journal.Append(recAnswer, a); err != nil {
		s.fail(err)
		return fmt.Errorf("service: %w: %w", ErrStore, err)
	}
	ch <- a
	return nil
}

// bridgeUser adapts the user.User callbacks of the interactive loop to the
// question/answer state machine of a manual session.
type bridgeUser struct {
	s   *HostedSession
	ctx context.Context
}

func (b *bridgeUser) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) user.Decision {
	q := &Question{Kind: "label", Node: node, CanZoom: canZoom}
	if n != nil {
		q.Neighborhood = n.Fragment.Text()
		q.Frontier = n.Frontier
	}
	a, ok := b.s.ask(b.ctx, q, StatusAwaitingLabel)
	if !ok {
		// Canceled: answer negative so the loop reaches its context check.
		return user.Negative
	}
	switch a.Decision {
	case "positive":
		return user.Positive
	case "zoom":
		return user.Zoom
	default:
		return user.Negative
	}
}

func (b *bridgeUser) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	a, ok := b.s.ask(b.ctx, &Question{Kind: "path", Node: node, Words: words, Candidate: candidate}, StatusAwaitingPath)
	if !ok || a.Accept {
		return nil // accept the system's candidate
	}
	return a.Word
}

func (b *bridgeUser) Satisfied(learned *regex.Expr) bool {
	if learned == nil {
		return false
	}
	a, ok := b.s.ask(b.ctx, &Question{Kind: "satisfied", Learned: learned.String()}, StatusAwaitingSatisfied)
	if !ok {
		return false
	}
	return a.Satisfied != nil && *a.Satisfied
}

// observedUser wraps the session's inner user (bridge or simulated oracle)
// to keep the hosted session's label count and current hypothesis fresh.
type observedUser struct {
	inner user.User
	s     *HostedSession
}

func (o *observedUser) LabelNode(node graph.NodeID, n *graph.Neighborhood, canZoom bool) user.Decision {
	d := o.inner.LabelNode(node, n, canZoom)
	if d == user.Positive || d == user.Negative {
		o.s.mu.Lock()
		o.s.labels++
		o.s.mu.Unlock()
	}
	return d
}

func (o *observedUser) ValidatePath(node graph.NodeID, words [][]string, candidate []string) []string {
	return o.inner.ValidatePath(node, words, candidate)
}

func (o *observedUser) Satisfied(learned *regex.Expr) bool {
	if learned != nil {
		o.s.noteHypothesis(learned.String())
	}
	return o.inner.Satisfied(learned)
}

// noteHypothesis records a freshly learned hypothesis in the view and the
// journal. During resume, the first replayState.hypSkip hypotheses are
// regenerations of records already on disk and are not re-journaled.
func (s *HostedSession) noteHypothesis(learned string) {
	s.mu.Lock()
	s.learned = learned
	skip := false
	if s.replay != nil && s.replay.hypSkip > 0 {
		s.replay.hypSkip--
		skip = true
	}
	s.mu.Unlock()
	if !skip {
		if s.tr != nil {
			s.tr.log.Debug("hypothesis", "session_id", s.id, "learned", learned)
		}
		if err := s.journal.Append(recHypothesis, hypothesisRecord{Learned: learned}); err != nil {
			s.fail(err)
		}
	}
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
	// live counts sessions whose learning goroutine has not exited yet;
	// it makes the MaxSessions admission check O(1).
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

// noteFinished is called exactly once by each session's learning goroutine
// when it exits: it frees the live slot (waking fair-share waiters) and
// enrolls the session in the bounded finished-retention queue.
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

func strategyFor(cfg SessionConfig) (interactive.Strategy, error) {
	switch cfg.Strategy {
	case "", "informative":
		return &interactive.InformativeStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	case "random":
		return interactive.NewRandomStrategy(cfg.Seed), nil
	case "hybrid":
		return &interactive.HybridStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	case "disagreement":
		return &interactive.DisagreementStrategy{MaxPathLength: cfg.MaxPathLength}, nil
	default:
		return nil, fmt.Errorf("service: unknown strategy %q (want informative, random, hybrid or disagreement)", cfg.Strategy)
	}
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

// Create starts a new hosted session on the graph for the default tenant —
// the open-mode path and the one embedders use.
func (m *Manager) Create(h *GraphHandle, cfg SessionConfig) (*HostedSession, error) {
	return m.CreateFor(TenantInfo{Name: DefaultTenant}, h, cfg)
}

// CreateFor starts a new hosted session on the graph, charged to the
// tenant's quota and fair-share account. The learning loop runs in its own
// goroutine until it halts, is canceled, or converges.
func (m *Manager) CreateFor(tn TenantInfo, h *GraphHandle, cfg SessionConfig) (*HostedSession, error) {
	if cfg.Mode == "" {
		cfg.Mode = "manual"
	}
	strat, err := strategyFor(cfg)
	if err != nil {
		return nil, err
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

	s := &HostedSession{
		id:      id,
		handle:  h,
		tenant:  tn.Name,
		cfg:     cfg,
		done:    make(chan struct{}),
		journal: jr,
		tr:      m.tr,
		status:  StatusRunning,
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	m.log.Info("session created",
		"session_id", id, "graph", h.Name(), "tenant", tn.Name, "mode", cfg.Mode, "strategy", cfg.Strategy)
	m.launch(s, strat, goal, ctx)
	return s, nil
}

// launch starts the learning goroutine of a session whose slot, journal,
// cancel function and manager registration are already in place. Shared by
// Create and the resume path of Restore.
func (m *Manager) launch(s *HostedSession, strat interactive.Strategy, goal *regex.Expr, ctx context.Context) {
	h := s.handle
	var inner user.User
	if s.cfg.Mode == "simulated" {
		inner = user.NewSimulatedWith(h.Graph(), goal, h.Cache())
	} else {
		inner = &bridgeUser{s: s, ctx: ctx}
	}
	opts := interactive.Options{
		Strategy:        strat,
		InitialRadius:   s.cfg.InitialRadius,
		PathValidation:  s.cfg.PathValidation,
		MaxInteractions: s.cfg.MaxInteractions,
		Learn:           learn.Options{MaxPathLength: s.cfg.MaxPathLength},
		Cache:           h.Cache(),
	}
	if m.tr != nil {
		sid := s.id
		opts.Learn.Trace = func(phase string, d time.Duration) {
			m.tr.learnPhaseDone(sid, phase, d)
		}
	}
	sess := interactive.NewSession(h.Graph(), &observedUser{inner: inner, s: s}, opts)
	go func() {
		// Deferred calls run last-in first-out: done closes only after
		// noteFinished has freed the slot and enrolled the session for
		// retention, so a Done waiter sees the manager already updated.
		defer close(s.done)
		defer m.noteFinished(s)
		tr, err := sess.RunContext(ctx)
		// The terminal record is journaled before the status is published:
		// a client that sees done or failed must find the record on disk,
		// or a crash in between would re-run a session it saw finish.
		s.mu.Lock()
		fatal := s.fatal
		if fatal == "" && err != nil {
			fatal = err.Error()
		}
		var final doneRecord
		terminal := recDone
		if fatal != "" {
			terminal = recFailed
			final = doneRecord{Error: fatal, Learned: s.learned, Labels: s.labels}
		} else {
			final = doneRecord{Halt: string(tr.Halt), Learned: s.learned, Labels: tr.Labels()}
			if tr.Final != nil {
				final.Learned = tr.Final.String()
			}
		}
		s.mu.Unlock()
		// Best effort: the terminal record of a session torn down by
		// Remove may land on an already-removed journal. AppendTerminal
		// lets the engine fsync immediately (no group-commit window) and
		// mark the session finished for compaction.
		_ = s.journal.AppendTerminal(terminal, final)
		s.mu.Lock()
		if terminal == recFailed {
			s.status = StatusFailed
			s.errMsg = fatal
		} else {
			s.status = StatusDone
			s.halt = final.Halt
			s.learned = final.Learned
			s.labels = final.Labels
		}
		s.mu.Unlock()
		if terminal == recFailed {
			m.log.Warn("session failed",
				"session_id", s.id, "graph", h.Name(), "error", final.Error, "labels", final.Labels)
		} else {
			m.log.Info("session finished",
				"session_id", s.id, "graph", h.Name(), "halt", final.Halt, "labels", final.Labels, "learned", final.Learned)
		}
		_ = s.journal.Close()
	}()
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

// Counts returns the number of sessions per status.
func (m *Manager) Counts() map[SessionStatus]int {
	out := make(map[SessionStatus]int)
	for _, v := range m.List() {
		out[v.Status]++
	}
	return out
}
