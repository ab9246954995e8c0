package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/interactive"
	"repro/internal/regex"
	"repro/internal/store"
)

// RecoveryReport summarises what Server.Recover restored. Its counts are
// the gpsd_recovery_* gauges; gpsd logs each skipped journal, with its
// reason, at boot.
type RecoveryReport struct {
	// Graphs counts re-registered graph snapshots.
	Graphs int
	// SessionsResumed counts in-flight sessions whose learning loop was
	// re-driven from the journal; SessionsFinished counts finished
	// sessions restored as inspectable records.
	SessionsResumed  int
	SessionsFinished int
	// SessionsSkipped lists journals that could not be restored, with the
	// reason. Their files are left on disk untouched.
	SessionsSkipped []string
}

// Recover replays the configured store into the server: graph snapshots
// re-register under their names, finished sessions come back as
// inspectable records, and in-flight sessions resume, each in its own
// goroutine — the journaled answers are folded through a new learning loop
// until it reaches the exact pre-crash state, which parks on the next
// question as if the crash never happened. Call it after NewServer and
// before serving requests.
func (s *Server) Recover() (RecoveryReport, error) {
	st := s.opts.Store
	if st == nil {
		return RecoveryReport{}, fmt.Errorf("service: recover needs Options.Store")
	}
	var rep RecoveryReport
	graphs, err := st.RecoverGraphs()
	if err != nil {
		return rep, err
	}
	// The ownership sidecar maps recovered graphs back to their tenants, so
	// per-tenant graph quotas keep binding across a restart.
	owners, err := store.LoadOwners(st.Dir())
	if err != nil {
		return rep, err
	}
	for _, rg := range graphs {
		s.registry.restore(rg.Name, rg.Graph, tenantOrDefault(owners[rg.Name]))
		rep.Graphs++
	}
	sessions, err := st.RecoverSessions()
	if err != nil {
		return rep, err
	}
	for _, rs := range sessions {
		resumed, err := s.manager.Restore(s.registry, rs)
		if err != nil {
			rep.SessionsSkipped = append(rep.SessionsSkipped, fmt.Sprintf("%s: %v", rs.ID, err))
			_ = rs.Journal.Close()
			continue
		}
		if resumed {
			rep.SessionsResumed++
		} else {
			rep.SessionsFinished++
		}
	}
	s.recovery = rep
	s.opts.Logger.Info("recovery complete",
		"graphs", rep.Graphs,
		"sessions_resumed", rep.SessionsResumed,
		"sessions_finished", rep.SessionsFinished,
		"sessions_skipped", len(rep.SessionsSkipped))
	return rep, nil
}

// Restore rebuilds one session from its recovered journal. A journal with
// a terminal record restores as a finished session; an unterminated
// journal is an in-flight session (resumed=true). It resumes in its own
// goroutine: a manual one folds its journaled answers through a new
// learning loop, in order, and parks on the question that follows; a
// simulated one re-runs with its oracle. Either way, records already on
// disk are not appended again, and a regenerated question or hypothesis
// that differs from its journaled record fails the session.
func (m *Manager) Restore(reg *Registry, rs store.RecoveredSession) (resumed bool, err error) {
	// Advance the id allocator even when the journal turns out to be
	// unrestorable: its file stays on disk, and a future Create reusing
	// the id would collide with it.
	m.noteID(rs.ID)
	recs := rs.Journal.Records()
	if len(recs) == 0 || recs[0].Type != recCreate {
		return false, fmt.Errorf("journal has no create record")
	}
	var cr createRecord
	if err := json.Unmarshal(recs[0].Data, &cr); err != nil {
		return false, fmt.Errorf("create record: %w", err)
	}
	h, ok := reg.Get(cr.Graph)
	if !ok {
		return false, fmt.Errorf("graph %q is not registered", cr.Graph)
	}

	var disk journaled
	lastHyp := ""
	var final *doneRecord
	failed := false
	for _, rec := range recs[1:] {
		var err error
		switch rec.Type {
		case recQuestion:
			var q Question
			err = json.Unmarshal(rec.Data, &q)
			disk.questions = append(disk.questions, q)
		case recAnswer:
			var a Answer
			err = json.Unmarshal(rec.Data, &a)
			disk.answers = append(disk.answers, a)
		case recHypothesis:
			var hr hypothesisRecord
			err = json.Unmarshal(rec.Data, &hr)
			disk.hyps = append(disk.hyps, hr.Learned)
			lastHyp = hr.Learned
		case recDone, recFailed:
			final = &doneRecord{}
			err = json.Unmarshal(rec.Data, final)
			failed = rec.Type == recFailed
		}
		if err != nil {
			return false, fmt.Errorf("record %d: %w", rec.Seq, err)
		}
	}

	if final != nil {
		learned := final.Learned
		if learned == "" {
			learned = lastHyp
		}
		s := m.newSession(rs.ID, h, tenantOrDefault(cr.Tenant), cr.Config, rs.Journal, nil)
		close(s.done)
		s.labels = final.Labels
		s.learned = learned
		if failed {
			s.status = StatusFailed
			s.errMsg = final.Error
		} else {
			s.status = StatusDone
			s.halt = final.Halt
		}
		_ = rs.Journal.Close() // terminal: nothing appends anymore
		m.mu.Lock()
		m.sessions[rs.ID] = s
		m.finishedIDs = append(m.finishedIDs, rs.ID)
		m.evictFinishedLocked()
		m.mu.Unlock()
		return false, nil
	}

	strat, err := interactive.StrategyByName(cr.Config.Strategy, cr.Config.Seed)
	if err != nil {
		return false, fmt.Errorf("service: %w", err)
	}
	var goal *regex.Expr
	if cr.Config.Mode == "simulated" {
		if goal, err = parseQuery(cr.Config.Goal); err != nil {
			return false, err
		}
	}
	s := m.newSession(rs.ID, h, tenantOrDefault(cr.Tenant), cr.Config, rs.Journal, goal)
	// Resumed sessions bypass the admission check: they held a slot before
	// the crash, and refusing them would lose user labels. adoptLocked still
	// books the slot to the tenant, so post-recovery quotas see it.
	m.mu.Lock()
	m.adoptLocked(s.tenant)
	m.sessions[rs.ID] = s
	m.mu.Unlock()
	m.log.Info("session resumed",
		"session_id", rs.ID, "graph", cr.Graph, "tenant", s.tenant, "mode", cr.Config.Mode,
		"journaled_questions", len(disk.questions), "journaled_answers", len(disk.answers))
	s.start(strat, &disk)
	return true, nil
}

// noteID advances the id allocator past a recovered session id so new
// sessions never collide with restored ones.
func (m *Manager) noteID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "s%d", &n); err == nil {
		m.mu.Lock()
		if n > m.nextID {
			m.nextID = n
		}
		m.mu.Unlock()
	}
}
