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

// maxCutsPerSession bounds the cut points tried on one session journal; a
// longer journal is cut at a seeded sample of its record boundaries.
const maxCutsPerSession = 40

// crashSession is one finished manual session on the text engine: its data
// directory, journal bytes and what recovery needs to replay it.
type crashSession struct {
	dir       string
	id        string
	g         *graph.Graph
	goal      *regex.Expr
	journal   []byte
	questions []Question // the uncut run's questions, in order
}

// runCrashSession drives one manual session to its end on a durable text
// engine, answering as the simulated user pursuing goal.
func runCrashSession(t *testing.T, spec DatasetSpec, goal string, validate bool) crashSession {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The closure index changes no answer; skipping its background build
	// keeps the hundreds of recoveries below cheap.
	srv := NewServer(Options{CacheCapacity: 16, DisableIndex: true, Store: st})
	g, err := BuildGraph(LoadSpec{Dataset: spec})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.manager.CreateFor(TenantInfo{Name: DefaultTenant}, h, SessionConfig{
		Graph: "g", Mode: "manual", Strategy: "informative", PathValidation: validate,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := crashSession{dir: dir, id: s.id, g: g, goal: regex.MustParse(goal)}
	if v := driveToEnd(t, s, user.NewSimulated(g, cs.goal)); v.Status != StatusDone {
		t.Fatalf("uncut session ended %s: %s", v.Status, v.Error)
	}
	<-s.done
	if cs.journal, err = os.ReadFile(journalPath(t, dir, s.id)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range journalLines(t, cs.journal) {
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

// journalLines parses JSONL journal bytes, ignoring a torn final line.
func journalLines(t *testing.T, data []byte) []store.Record {
	t.Helper()
	var recs []store.Record
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break
		}
		var rec store.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// recoverCut copies the session's data directory with its journal replaced
// by journal, recovers a server from the copy and returns the restored
// session.
func recoverCut(t *testing.T, cs crashSession, journal []byte) (*HostedSession, string) {
	t.Helper()
	dir := t.TempDir()
	err := filepath.WalkDir(cs.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(cs.dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err == nil {
		err = os.WriteFile(journalPath(t, dir, cs.id), journal, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{CacheCapacity: 16, DisableIndex: true, Store: st})
	rep, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SessionsSkipped) != 0 {
		t.Fatalf("recovery skipped %v", rep.SessionsSkipped)
	}
	s, ok := srv.manager.Get(cs.id)
	if !ok {
		t.Fatalf("session %s was not restored", cs.id)
	}
	return s, dir
}

// TestRecoverAtEveryJournalPrefix crashes finished manual sessions at every
// journal record boundary and halfway into every record: recovery must
// truncate the torn tail, resume the session where the kept records left
// it, and finish with the transcript of the uncut run — the same turns,
// hypotheses and end, with no record lost or duplicated. The client's
// simulated user is rebuilt from the answers the cut journal kept.
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
			cs := runCrashSession(t, c.spec, c.goal, c.validate)
			wantTurns, wantLearned, wantEnd := journalTranscript(t, journalLines(t, cs.journal))
			// Record boundaries after the create record: a crash before it
			// lands loses a session the client never saw created.
			var ends []int
			for i, b := range cs.journal {
				if b == '\n' {
					ends = append(ends, i+1)
				}
			}
			if len(ends) > maxCutsPerSession {
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(len(ends)-1, func(i, j int) { ends[i+1], ends[j+1] = ends[j+1], ends[i+1] })
				ends = ends[:maxCutsPerSession]
			}
			var cuts []int
			for _, end := range ends {
				cuts = append(cuts, end)
				if next := strings.IndexByte(string(cs.journal[end:]), '\n'); next > 0 {
					cuts = append(cuts, end+next/2)
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
func checkCut(t *testing.T, cs crashSession, cut int, wantTurns, wantLearned []string, wantEnd string) {
	s, dir := recoverCut(t, cs, cs.journal[:cut])
	u := user.NewSimulated(cs.g, cs.goal)
	answers := 0
	for _, rec := range journalLines(t, cs.journal[:cut]) {
		if rec.Type == recAnswer {
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
	data, err := os.ReadFile(journalPath(t, dir, cs.id))
	if err != nil {
		t.Fatal(err)
	}
	turns, learned, end := journalTranscript(t, journalLines(t, data))
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

// TestResumeDivergedQuestionFails edits the node of a journaled question so
// the resumed loop regenerates a different question at that position: the
// session must restore as failed, naming the question that diverged,
// instead of pairing the journaled answer with the wrong question.
func TestResumeDivergedQuestionFails(t *testing.T) {
	cs := runCrashSession(t, DatasetSpec{Kind: "figure1"}, "(tram+bus)*.cinema", true)
	recs := journalLines(t, cs.journal)
	var edited strings.Builder
	for _, rec := range recs[:len(recs)-1] { // drop the terminal record: the session is in flight
		if rec.Seq == 2 {
			var q Question
			if err := json.Unmarshal(rec.Data, &q); err != nil || rec.Type != recQuestion {
				t.Fatalf("record 2 is %s %s, want the first question", rec.Type, rec.Data)
			}
			q.Node += "-edited"
			rec.Data, _ = json.Marshal(q)
		}
		line, _ := json.Marshal(rec)
		edited.Write(append(line, '\n'))
	}
	s, _ := recoverCut(t, cs, []byte(edited.String()))
	v := waitPendingOrEnd(t, s)
	if v.Status != StatusFailed || !strings.Contains(v.Error, "resume diverged at question 1") {
		t.Fatalf("diverged resume ended %s with error %q, want failed at question 1", v.Status, v.Error)
	}
}

// TestResumeSimulatedSessionSkipsJournaledHypotheses crashes a durable
// simulated session after each of its journaled hypotheses: the resumed
// oracle run regenerates them without appending them again, and ends with
// the hypotheses and end of the uncut run.
func TestResumeSimulatedSessionSkipsJournaledHypotheses(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{CacheCapacity: 16, DisableIndex: true, Store: st})
	g, err := BuildGraph(LoadSpec{Dataset: DatasetSpec{Kind: "transport", Rows: 10, Cols: 10, Seed: 1, FacilityRate: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := srv.manager.CreateFor(TenantInfo{Name: DefaultTenant}, h, SessionConfig{
		Graph: "g", Mode: "simulated", Goal: "(tram+bus)*.cinema", PathValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-s.done
	cs := crashSession{dir: dir, id: s.id}
	if cs.journal, err = os.ReadFile(journalPath(t, dir, s.id)); err != nil {
		t.Fatal(err)
	}
	recs := journalLines(t, cs.journal)
	_, wantLearned, wantEnd := journalTranscript(t, recs)
	if len(wantLearned) < 2 {
		t.Fatalf("uncut run journaled %d hypotheses, want at least 2", len(wantLearned))
	}
	end := 0
	for _, rec := range recs[:len(recs)-1] { // every cut leaves the session in flight
		end += strings.IndexByte(string(cs.journal[end:]), '\n') + 1
		if rec.Type != recHypothesis {
			continue
		}
		t.Run(fmt.Sprintf("cut=%d", end), func(t *testing.T) {
			s, dir := recoverCut(t, cs, cs.journal[:end])
			<-s.done
			data, err := os.ReadFile(journalPath(t, dir, cs.id))
			if err != nil {
				t.Fatal(err)
			}
			_, learned, gotEnd := journalTranscript(t, journalLines(t, data))
			if got, want := strings.Join(learned, " "), strings.Join(wantLearned, " "); got != want {
				t.Errorf("hypotheses differ\n got: %s\nwant: %s", got, want)
			}
			if gotEnd != wantEnd {
				t.Errorf("end differs\n got: %s\nwant: %s", gotEnd, wantEnd)
			}
		})
	}
}
