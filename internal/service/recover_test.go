package service

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/store"
	"repro/internal/user"
)

// maxCutsPerSession bounds the frame boundaries tried on one session
// journal; a longer journal is cut at a seeded sample of them.
const maxCutsPerSession = 40

// crashSession is one finished durable session and what recovery needs to
// replay it.
type crashSession struct {
	// dir holds the session's records alone, written by writeRecords, and
	// ends the active segment's size after each of them.
	dir       string
	ends      []int64
	id        string
	g         *graph.Graph
	goal      *regex.Expr
	recs      []store.Record
	questions []Question // the uncut run's questions, in order
}

// copyTree copies every file under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// activeSegment returns the path of the only wal segment under dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%s holds segments %v, want exactly one", dir, segs)
	}
	return segs[0]
}

// writeRecords writes recs, in order, as session id's journal into a fresh
// data directory that holds a copy of the graph snapshots under from. It
// returns the directory and the active segment's size after each durable
// append: the frame boundaries a crash can cut the journal at.
func writeRecords(t *testing.T, from, id string, recs []store.Record) (dir string, ends []int64) {
	t.Helper()
	dir = t.TempDir()
	copyTree(t, filepath.Join(from, "graphs"), filepath.Join(dir, "graphs"))
	eng, err := store.OpenEngine(dir, store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	j, err := eng.CreateJournal(id)
	if err != nil {
		t.Fatal(err)
	}
	seg := ""
	for _, rec := range recs {
		var data any
		if rec.Data != nil {
			data = rec.Data
		}
		add := j.Append
		if rec.Type == recDone || rec.Type == recFailed {
			add = j.AppendTerminal
		}
		if err := add(rec.Type, data); err != nil {
			t.Fatal(err)
		}
		if seg == "" {
			seg = activeSegment(t, dir)
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	activeSegment(t, dir) // the boundaries all lie in one segment
	return dir, ends
}

// durableRecords returns session id's records as a fresh engine recovers
// them from a copy of dir, so a server still running over dir is left
// alone.
func durableRecords(t *testing.T, dir, id string) []store.Record {
	t.Helper()
	cp := t.TempDir()
	copyTree(t, dir, cp)
	eng, err := store.OpenEngine(cp, store.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	recovered, err := eng.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range recovered {
		if rs.ID == id {
			return rs.Journal.Records()
		}
	}
	t.Fatalf("%s holds no journal for session %s", dir, id)
	return nil
}

// runCrashSession runs one session to its end on a durable server — a
// manual one answered as the simulated user pursuing goal — and writes
// its durable records into a directory of their own.
func runCrashSession(t *testing.T, spec DatasetSpec, goal, mode string, validate bool) crashSession {
	t.Helper()
	dir := t.TempDir()
	// The closure index changes no answer; skipping its background build
	// keeps the hundreds of recoveries below cheap.
	srv := NewServer(Options{CacheCapacity: 16, DisableIndex: true, Store: openEngine(t, dir)})
	g, err := BuildGraph(LoadSpec{Dataset: spec})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.manager.CreateFor(TenantInfo{Name: DefaultTenant}, h, SessionConfig{
		Graph: "g", Mode: mode, Goal: goal, Strategy: "informative", PathValidation: validate,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := crashSession{id: s.id, g: g, goal: regex.MustParse(goal)}
	if mode == "manual" {
		driveToEnd(t, s, user.NewSimulated(g, cs.goal))
	}
	<-s.done
	if v := s.View(); v.Status != StatusDone {
		t.Fatalf("uncut session ended %s: %s", v.Status, v.Error)
	}
	cs.recs = durableRecords(t, dir, s.id)
	cs.dir, cs.ends = writeRecords(t, dir, s.id, cs.recs)
	for _, rec := range cs.recs {
		if rec.Type == recQuestion {
			var q Question
			if err := json.Unmarshal(rec.Data, &q); err != nil {
				t.Fatal(err)
			}
			cs.questions = append(cs.questions, q)
		}
	}
	return cs
}

// driveToEnd answers every question the session asks, in process, until it
// finishes, and returns the final view.
func driveToEnd(t *testing.T, s *HostedSession, u *user.Simulated) SessionView {
	t.Helper()
	for {
		v := waitPendingOrEnd(t, s)
		if v.Pending == nil {
			return v
		}
		if err := s.Answer(answerAs(t, u, v.Pending)); err != nil {
			t.Fatalf("answer %+v: %v", v.Pending, err)
		}
	}
}

// waitPendingOrEnd polls the session until it asks a question or ends.
func waitPendingOrEnd(t *testing.T, s *HostedSession) SessionView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := s.View()
		if v.Pending != nil || v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s", v.ID, v.Status)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recoverAt recovers a server from dir and returns the restored session.
func recoverAt(t *testing.T, dir, id string) *HostedSession {
	t.Helper()
	srv := NewServer(Options{CacheCapacity: 16, DisableIndex: true, Store: openEngine(t, dir)})
	rep, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SessionsSkipped) != 0 {
		t.Fatalf("recovery skipped %v", rep.SessionsSkipped)
	}
	s, ok := srv.manager.Get(id)
	if !ok {
		t.Fatalf("session %s was not restored", id)
	}
	return s
}

// cutAt copies the session's records directory with its segment cut at
// byte cut, as a crash at that point of the write would leave it.
func cutAt(t *testing.T, cs crashSession, cut int64) string {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, cs.dir, dir)
	if err := os.Truncate(activeSegment(t, dir), cut); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverAtEveryJournalPrefix crashes finished manual sessions at every
// frame boundary of their journal and halfway into every frame: recovery
// must truncate the torn tail, resume the session where the kept records
// left it, and finish with the transcript of the uncut run — the same
// turns, hypotheses and end, with no record lost or duplicated. The
// client's simulated user is rebuilt from the answers the cut journal kept.
func TestRecoverAtEveryJournalPrefix(t *testing.T) {
	figure1 := DatasetSpec{Kind: "figure1"}
	transport10 := DatasetSpec{Kind: "transport", Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.3}
	cases := []struct {
		spec     DatasetSpec
		goal     string
		validate bool
	}{
		{figure1, "(tram+bus)*.cinema", true},
		{figure1, "(tram+bus)*.cinema", false},
		{transport10, "(tram+bus)*.cinema", true},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/goal=%s/validation=%t", c.spec.Kind, c.goal, c.validate), func(t *testing.T) {
			t.Parallel()
			cs := runCrashSession(t, c.spec, c.goal, "manual", c.validate)
			wantTurns, wantLearned, wantEnd := journalTranscript(t, cs.recs)
			// Frame boundaries from the create record's end on: a crash
			// before it lands loses a session the client never saw created.
			kept := make([]int, len(cs.ends))
			for i := range kept {
				kept[i] = i
			}
			if len(kept) > maxCutsPerSession {
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(len(kept)-1, func(i, j int) { kept[i+1], kept[j+1] = kept[j+1], kept[i+1] })
				kept = kept[:maxCutsPerSession]
			}
			var cuts []int64
			for _, i := range kept {
				cuts = append(cuts, cs.ends[i])
				if i+1 < len(cs.ends) {
					cuts = append(cuts, (cs.ends[i]+cs.ends[i+1])/2)
				}
			}
			for _, cut := range cuts {
				cut := cut
				t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
					t.Parallel()
					checkCut(t, cs, cut, wantTurns, wantLearned, wantEnd)
				})
			}
		})
	}
}

// checkCut recovers the session from its journal cut at byte cut, drives it
// to its end and compares the resulting transcript with the uncut run's.
func checkCut(t *testing.T, cs crashSession, cut int64, wantTurns, wantLearned []string, wantEnd string) {
	dir := cutAt(t, cs, cut)
	s := recoverAt(t, dir, cs.id)
	u := user.NewSimulated(cs.g, cs.goal)
	answers := 0
	for i, rec := range cs.recs {
		if cs.ends[i] <= cut && rec.Type == recAnswer {
			answers++
		}
	}
	for _, q := range cs.questions[:answers] {
		answerAs(t, u, &q)
	}
	if v := driveToEnd(t, s, u); v.Status != StatusDone {
		t.Fatalf("resumed session ended %s: %s", v.Status, v.Error)
	}
	<-s.done
	turns, learned, end := journalTranscript(t, durableRecords(t, dir, cs.id))
	if got, want := strings.Join(turns, "\n"), strings.Join(wantTurns, "\n"); got != want {
		t.Errorf("turns differ\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := strings.Join(learned, " "), strings.Join(wantLearned, " "); got != want {
		t.Errorf("hypotheses differ\n got: %s\nwant: %s", got, want)
	}
	if end != wantEnd {
		t.Errorf("end differs\n got: %s\nwant: %s", end, wantEnd)
	}
}

// resumeEdited recovers the session from its records with the terminal
// record dropped — the session is in flight — and record seq replaced by
// edit's result, and returns the view it settles on.
func resumeEdited(t *testing.T, cs crashSession, seq uint64, edit func(store.Record) store.Record) SessionView {
	t.Helper()
	recs := append([]store.Record(nil), cs.recs[:len(cs.recs)-1]...)
	recs[seq-1] = edit(recs[seq-1])
	dir, _ := writeRecords(t, cs.dir, cs.id, recs)
	s := recoverAt(t, dir, cs.id)
	v := waitPendingOrEnd(t, s)
	if v.Pending == nil {
		<-s.done
	}
	return v
}

// editJSON decodes a record's payload into v, lets edit change it and
// re-encodes it.
func editJSON[T any](t *testing.T, rec store.Record, edit func(*T)) store.Record {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Data, &v); err != nil {
		t.Fatalf("record %d (%s): %v", rec.Seq, rec.Type, err)
	}
	edit(&v)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec.Data = data
	return rec
}

// firstRecord returns the sequence number of the first record of type typ
// that satisfies ok.
func firstRecord(t *testing.T, recs []store.Record, typ string, ok func(store.Record) bool) uint64 {
	t.Helper()
	for _, rec := range recs {
		if rec.Type == typ && ok(rec) {
			return rec.Seq
		}
	}
	t.Fatalf("no %s record matches", typ)
	return 0
}

// TestResumeDivergedQuestionFails edits the node of a journaled question so
// the resumed loop regenerates a different question at that position: the
// session must restore as failed, naming the question that diverged,
// instead of pairing the journaled answer with the wrong question.
func TestResumeDivergedQuestionFails(t *testing.T) {
	cs := runCrashSession(t, DatasetSpec{Kind: "figure1"}, "(tram+bus)*.cinema", "manual", true)
	if cs.recs[1].Type != recQuestion {
		t.Fatalf("record 2 is %s, want the first question", cs.recs[1].Type)
	}
	v := resumeEdited(t, cs, 2, func(rec store.Record) store.Record {
		return editJSON(t, rec, func(q *Question) { q.Node += "-edited" })
	})
	if v.Status != StatusFailed || !strings.Contains(v.Error, "resume diverged at question 1") {
		t.Fatalf("diverged resume ended %s with error %q, want failed at question 1", v.Status, v.Error)
	}
}

// TestResumeDivergedRecordFails edits one record of a finished journal
// that resume regenerates — a hypothesis of a manual session, the words
// and candidate of a path question, the first hypothesis of a simulated
// session — and recovers it in flight: each session must fail, naming the
// record that diverged, instead of mixing two runs in one journal or
// applying an accept to a candidate the client was never shown.
func TestResumeDivergedRecordFails(t *testing.T) {
	figure1 := DatasetSpec{Kind: "figure1"}
	transport10 := DatasetSpec{Kind: "transport", Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.3}
	manual := runCrashSession(t, figure1, "(tram+bus)*.cinema", "manual", true)
	simulated := runCrashSession(t, transport10, "(tram+bus)*.cinema", "simulated", true)
	first := func(store.Record) bool { return true }
	isPath := func(rec store.Record) bool {
		var q Question
		return json.Unmarshal(rec.Data, &q) == nil && q.Kind == "path"
	}
	pathSeq := firstRecord(t, manual.recs, recQuestion, isPath)
	pathQ := 0
	for _, rec := range manual.recs[:pathSeq] {
		if rec.Type == recQuestion {
			pathQ++
		}
	}
	cases := []struct {
		name string
		cs   crashSession
		seq  uint64
		edit func(store.Record) store.Record
		want string
	}{
		{"manual-hypothesis", manual, firstRecord(t, manual.recs, recHypothesis, first),
			func(rec store.Record) store.Record {
				return editJSON(t, rec, func(h *hypothesisRecord) { h.Learned = "EDITED" })
			}, "resume diverged at hypothesis 1"},
		{"path-candidate", manual, pathSeq,
			func(rec store.Record) store.Record {
				return editJSON(t, rec, func(q *Question) {
					q.Words = append(q.Words, []string{"EDITED"})
					q.Candidate = []string{"EDITED"}
				})
			}, fmt.Sprintf("resume diverged at question %d", pathQ)},
		{"simulated-hypothesis", simulated, firstRecord(t, simulated.recs, recHypothesis, first),
			func(rec store.Record) store.Record {
				return editJSON(t, rec, func(h *hypothesisRecord) { h.Learned = "EDITED" })
			}, "resume diverged at hypothesis 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := resumeEdited(t, c.cs, c.seq, c.edit)
			if v.Status != StatusFailed || !strings.Contains(v.Error, c.want) {
				t.Fatalf("edited resume ended %s with error %q, want failed: %s", v.Status, v.Error, c.want)
			}
		})
	}
}

// TestResumeSimulatedSessionSkipsJournaledHypotheses crashes a durable
// simulated session after each of its journaled hypotheses: the resumed
// oracle run regenerates them without appending them again, and ends with
// the hypotheses and end of the uncut run.
func TestResumeSimulatedSessionSkipsJournaledHypotheses(t *testing.T) {
	cs := runCrashSession(t, DatasetSpec{Kind: "transport", Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.3},
		"(tram+bus)*.cinema", "simulated", true)
	_, wantLearned, wantEnd := journalTranscript(t, cs.recs)
	if len(wantLearned) < 2 {
		t.Fatalf("uncut run journaled %d hypotheses, want at least 2", len(wantLearned))
	}
	for i, rec := range cs.recs[:len(cs.recs)-1] { // every cut leaves the session in flight
		if rec.Type != recHypothesis {
			continue
		}
		cut := cs.ends[i]
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := cutAt(t, cs, cut)
			s := recoverAt(t, dir, cs.id)
			<-s.done
			_, learned, gotEnd := journalTranscript(t, durableRecords(t, dir, cs.id))
			if got, want := strings.Join(learned, " "), strings.Join(wantLearned, " "); got != want {
				t.Errorf("hypotheses differ\n got: %s\nwant: %s", got, want)
			}
			if gotEnd != wantEnd {
				t.Errorf("end differs\n got: %s\nwant: %s", gotEnd, wantEnd)
			}
		})
	}
}
