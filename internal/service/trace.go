package service

// Session lifecycle tracing: span-style timings of the three things an
// operator needs to see inside a session — how long clients take to
// answer published questions, where the learner spends each round, and
// how long crash-recovery replay took to restore a resumed session.
// Every span lands twice: as an observation in a registry histogram
// (aggregate view, scraped at /metrics) and as a debug-level structured
// log event (per-session view, -log-level debug).

import (
	"log/slog"
	"time"

	"repro/internal/obs"
)

// questionWaitBoundsUs bucket the publish→answer wait: simulated oracles
// answer in microseconds, humans in seconds to minutes.
var questionWaitBoundsUs = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000, 600_000_000}

// learnPhaseBoundsUs bucket one learner phase within a round; the whole
// round is sub-second on benchmarked graphs but grows with graph size.
var learnPhaseBoundsUs = []int64{100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000, 10_000_000}

// tracer owns the session-trace instruments. One tracer per Manager; the
// histogram children are registered once at construction so the per-event
// path is a map lookup and an atomic observe.
type tracer struct {
	log          *slog.Logger
	questionWait map[string]*obs.Histogram
	learnPhase   map[string]*obs.Histogram
	replay       *obs.Histogram
}

func newTracer(reg *obs.Registry, log *slog.Logger) *tracer {
	t := &tracer{
		log:          log,
		questionWait: make(map[string]*obs.Histogram, 3),
		learnPhase:   make(map[string]*obs.Histogram, 3),
	}
	for _, kind := range []string{"label", "path", "satisfied"} {
		t.questionWait[kind] = reg.Histogram("gpsd_session_question_wait_seconds",
			"Time from question publish to client answer, by question kind.",
			questionWaitBoundsUs, 1e-6, obs.L("kind", kind))
	}
	for _, phase := range []string{"witnesses", "generalize", "negative_checks"} {
		t.learnPhase[phase] = reg.Histogram("gpsd_session_learn_phase_seconds",
			"Learner time per round, by phase (witnesses = step 1, generalize = step 2, negative_checks = candidate consistency checks within step 2).",
			learnPhaseBoundsUs, 1e-6, obs.L("phase", phase))
	}
	t.replay = reg.Histogram("gpsd_session_replay_seconds",
		"Crash-recovery journal replay time per resumed session.",
		questionWaitBoundsUs, 1e-6)
	return t
}

// questionAnswered records one publish→answer span.
func (t *tracer) questionAnswered(sessionID, kind string, d time.Duration) {
	if h := t.questionWait[kind]; h != nil {
		h.Observe(d.Microseconds())
	}
	t.log.Debug("question answered",
		"session_id", sessionID, "kind", kind, "wait_us", d.Microseconds())
}

// learnPhaseDone records one learner phase span of one round.
func (t *tracer) learnPhaseDone(sessionID, phase string, d time.Duration) {
	if h := t.learnPhase[phase]; h != nil {
		h.Observe(d.Microseconds())
	}
	t.log.Debug("learn phase",
		"session_id", sessionID, "phase", phase, "duration_us", d.Microseconds())
}

// replayDone records a completed recovery replay: the journaled answers
// of a resumed session have been folded through its new learning loop.
func (t *tracer) replayDone(sessionID string, d time.Duration, questions int) {
	t.replay.Observe(d.Microseconds())
	t.log.Info("session replay complete",
		"session_id", sessionID, "questions", questions, "duration_us", d.Microseconds())
}
