package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"parastack/internal/experiment"
	"parastack/internal/ledger"
	"parastack/internal/results"
)

// memSink is an in-memory results.Sink/Reader capturing appends in
// order, with a switchable failure mode.
type memSink struct {
	mu   sync.Mutex
	recs []results.Record
	fail bool
}

func (m *memSink) Append(rec results.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return errors.New("memSink: injected append failure")
	}
	payload := make([]byte, len(rec.Payload))
	copy(payload, rec.Payload)
	m.recs = append(m.recs, results.Record{Key: rec.Key, Payload: payload})
	return nil
}

func (m *memSink) Close() error { return nil }

func (m *memSink) Records() ([]results.Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]results.Record, len(m.recs))
	copy(out, m.recs)
	return out, nil
}

func (m *memSink) setFail(fail bool) {
	m.mu.Lock()
	m.fail = fail
	m.mu.Unlock()
}

// TestJournalBeforeAck pins the ordering invariants: the admit record
// is in the journal before Submit returns success, and a decided job's
// journal verdict record precedes its verdict-sink record.
func TestJournalBeforeAck(t *testing.T) {
	ms := &memSink{}
	s := New(Config{Run: fakeRun, Journal: ms, Sink: ms})
	if err := s.Submit(simJob("j1", 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Submit has returned: the admit record must already be durable.
	recs, _ := ms.Records()
	if len(recs) == 0 {
		t.Fatal("Submit acked before the admit record reached the journal")
	}
	var admit JournalRecord
	if err := json.Unmarshal(recs[0].Payload, &admit); err != nil {
		t.Fatalf("admit record: %v", err)
	}
	if admit.Kind != JournalKindAdmit || admit.JobID != "j1" || admit.Job == nil || admit.Job.Seed != 1 {
		t.Fatalf("first journal record = %+v, want admit for j1", admit)
	}
	if recs[0].Key != journalAdmitKey("j1") {
		t.Fatalf("admit key = %q", recs[0].Key)
	}

	if _, err := s.Wait(context.Background(), "j1"); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil { // syncs the post-verdict appends
		t.Fatalf("drain: %v", err)
	}
	recs, _ = ms.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3 (admit, journal verdict, sink verdict)", len(recs))
	}
	var jv JournalRecord
	if err := json.Unmarshal(recs[1].Payload, &jv); err != nil {
		t.Fatalf("journal verdict record: %v", err)
	}
	if jv.Kind != JournalKindVerdict || jv.Verdict == nil || jv.Verdict.JobID != "j1" {
		t.Fatalf("second record = %+v, want journal verdict for j1", jv)
	}
	if recs[2].Key != "verdict|j1" {
		t.Fatalf("third record key = %q, want the verdict sink's (journal verdict must precede it)", recs[2].Key)
	}
	// The journaled verdict and the sink verdict are byte-identical
	// payload-wise (what makes the recovery re-append dedup in a ledger).
	sunk, _ := json.Marshal(jv.Verdict)
	if !bytes.Equal(sunk, recs[2].Payload) {
		t.Errorf("journaled verdict != sink verdict:\n%s\n%s", sunk, recs[2].Payload)
	}
}

// A failed journal append must withdraw the job: the client's error is
// the truth, no verdict is ever recorded, and the ID is reusable.
func TestJournalAppendFailureWithdrawsJob(t *testing.T) {
	ms := &memSink{}
	ms.setFail(true)
	s := New(Config{Run: fakeRun, Journal: ms})
	defer s.Close()

	err := s.Submit(simJob("j1", 1))
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with failing journal = %v, want ErrJournal", err)
	}
	if pending := s.Pending(); len(pending) != 0 {
		t.Fatalf("withdrawn job still resident: %v", pending)
	}
	if _, _, err := s.Verdict("j1"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("withdrawn job verdict lookup = %v, want ErrUnknownJob", err)
	}
	snap := s.Counters()
	if got := snap.Counter(CtrJournalErrors); got != 1 {
		t.Errorf("journal_errors = %d, want 1", got)
	}
	if got := snap.Counter(CtrJobsAdmitted); got != 0 {
		t.Errorf("jobs_admitted = %d, want 0", got)
	}

	// The journal recovers: the same ID admits cleanly.
	ms.setFail(false)
	if err := s.Submit(simJob("j1", 1)); err != nil {
		t.Fatalf("resubmit after journal recovery: %v", err)
	}
	if _, err := s.Wait(context.Background(), "j1"); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

func journalLine(t *testing.T, kind, id string, js *JobSpec, v *Verdict) results.Record {
	t.Helper()
	payload, err := json.Marshal(JournalRecord{Schema: JournalSchema, Kind: kind, JobID: id, Job: js, Verdict: v})
	if err != nil {
		t.Fatal(err)
	}
	return results.Record{Payload: payload}
}

func TestReplayJournal(t *testing.T) {
	a, b, c := simJob("a", 1), simJob("b", 2), simJob("c", 3)
	recs := []results.Record{
		// Verdict arriving before its admit (concurrent append schedule).
		journalLine(t, JournalKindVerdict, "b", nil, &Verdict{JobID: "b", Seq: 2, Status: VerdictOK}),
		journalLine(t, JournalKindAdmit, "a", &a, nil),
		journalLine(t, JournalKindAdmit, "b", &b, nil),
		journalLine(t, JournalKindAdmit, "a", &a, nil), // duplicate admit: first wins
		journalLine(t, JournalKindAdmit, "c", &c, nil),
		journalLine(t, JournalKindVerdict, "a", nil, &Verdict{JobID: "a", Seq: 9, Status: VerdictFailed}),
		journalLine(t, JournalKindVerdict, "a", nil, &Verdict{JobID: "a", Seq: 1, Status: VerdictOK}), // last verdict wins
		{Payload: []byte("not json at all")},                                                          // skipped
		{Payload: []byte(`{"schema":"other/v9","kind":"admit"}`)},                                     // wrong schema: skipped
		journalLine(t, "mystery", "c", nil, nil),                                                      // unknown kind: skipped
		journalLine(t, JournalKindVerdict, "c", nil, nil),                                             // verdict with no payload: skipped
		journalLine(t, JournalKindAdmit, "d", &a, nil),                                                // job/JobID mismatch: skipped
	}
	rep := ReplayJournal(recs)
	if len(rep.Open) != 1 || rep.Open[0].ID != "c" {
		t.Fatalf("open = %+v, want just c", rep.Open)
	}
	if len(rep.Decided) != 2 {
		t.Fatalf("decided = %+v, want a and b", rep.Decided)
	}
	// Sorted by Seq: a's winning (last) verdict has Seq 1, b's Seq 2.
	if rep.Decided[0].JobID != "a" || rep.Decided[0].Seq != 1 || rep.Decided[0].Status != VerdictOK {
		t.Fatalf("decided[0] = %+v, want a's last verdict (seq 1, ok)", rep.Decided[0])
	}
	if rep.Decided[1].JobID != "b" || rep.Decided[1].Seq != 2 {
		t.Fatalf("decided[1] = %+v, want b (seq 2)", rep.Decided[1])
	}
	if rep.Skipped != 5 {
		t.Fatalf("skipped = %d, want 5", rep.Skipped)
	}
	if got := rep.String(); got != "2 decided, 1 open, 5 skipped" {
		t.Fatalf("String() = %q", got)
	}
	if emptied := ReplayJournal(nil); len(emptied.Open)+len(emptied.Decided)+emptied.Skipped != 0 {
		t.Fatalf("empty journal replay = %+v", emptied)
	}
}

// FuzzJournalReplay pins ReplayJournal's totality: arbitrary journal
// bytes — torn, corrupted, adversarial — never panic, never emit a job
// twice, and never leave a decided job open.
func FuzzJournalReplay(f *testing.F) {
	a := simJob("a", 1)
	admit, _ := json.Marshal(JournalRecord{Schema: JournalSchema, Kind: JournalKindAdmit, JobID: "a", Job: &a})
	verdict, _ := json.Marshal(JournalRecord{Schema: JournalSchema, Kind: JournalKindVerdict, JobID: "a", Verdict: &Verdict{JobID: "a", Seq: 1}})
	f.Add(append(append(append([]byte{}, admit...), '\n'), verdict...))
	f.Add([]byte("{\"schema\":\"parastack-journal/v1\"\nnot json\n\n"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []results.Record
		for _, line := range bytes.Split(data, []byte("\n")) {
			recs = append(recs, results.Record{Payload: line})
		}
		rep := ReplayJournal(recs)
		seen := make(map[string]bool)
		for _, js := range rep.Open {
			if js.ID == "" {
				t.Fatal("open job with empty ID")
			}
			if seen[js.ID] {
				t.Fatalf("job %q emitted twice", js.ID)
			}
			seen[js.ID] = true
		}
		for _, v := range rep.Decided {
			if v.JobID == "" {
				t.Fatal("decided verdict with empty job ID")
			}
			if seen[v.JobID] {
				t.Fatalf("job %q both open and decided (or decided twice)", v.JobID)
			}
			seen[v.JobID] = true
		}
		for i := 1; i < len(rep.Decided); i++ {
			if rep.Decided[i-1].Seq > rep.Decided[i].Seq {
				t.Fatal("decided verdicts not sorted by Seq")
			}
		}
	})
}

// TestRecoverOverTornTail is the second-crash case of the exactly-once
// argument (DESIGN.md §10): a daemon restarted over a journal whose last
// admit was torn by a crash acks a new job, then crashes again before
// deciding it. The next replay must find that job open. The torn admit
// was never acked, so it is no job at all; what must not happen is the
// new admit being glued onto its fragment and skipped as corrupt.
func TestRecoverOverTornTail(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	js := simJob("j0", 1)
	torn, err := json.Marshal(JournalRecord{Schema: JournalSchema, Kind: JournalKindAdmit, JobID: js.ID, Job: &js})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath, torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	defer close(gate)
	wedged := func(rc experiment.RunConfig) experiment.RunResult { <-gate; return fakeRun(rc) }
	jnl, err := results.OpenJSONL(journalPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s := New(Config{Run: wedged, Workers: 1, Journal: jnl})
	rep, err := s.Recover(jnl)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Decided) != 0 || len(rep.Open) != 0 || rep.Skipped != 0 {
		t.Fatalf("replay over the torn admit = %s, want nothing", rep)
	}
	if err := s.Submit(simJob("j1", 1)); err != nil {
		t.Fatalf("submit j1: %v", err)
	}
	// "Crash" again: j1 is acked and journaled but its run is wedged.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := results.ReadJSONL(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	rep = ReplayJournal(recs)
	if len(rep.Open) != 1 || rep.Open[0].ID != "j1" || len(rep.Decided) != 0 || rep.Skipped != 0 {
		t.Fatalf("replay after the second crash = %s, want j1 open", rep)
	}
}

// TestRecoverExactlyOnce is the crash-recovery acceptance pin, run
// in-process: daemon A decides two jobs and is abandoned (simulated
// crash) with two more in flight; daemon B recovers from A's journal,
// re-installs the decided verdicts without re-running them, re-runs the
// open jobs, and ends with exactly one verdict per job — bit-identical
// (modulo Seq/IngestUS timing) to an uninterrupted daemon C, with the
// shared verdict ledger deduplicating the replayed appends and
// auditing clean.
func TestRecoverExactlyOnce(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	store := ledger.NewMemStore()
	defer store.Close()
	led, err := ledger.Open(store, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Daemon A: seeds >= 3 wedge forever — j3 and j4 never decide.
	gate := make(chan struct{})
	defer close(gate)
	wedgeHigh := func(rc experiment.RunConfig) experiment.RunResult {
		if rc.Seed >= 3 {
			<-gate
		}
		return fakeRun(rc)
	}
	jnlA, err := results.OpenJSONL(journalPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	svcA := New(Config{Run: wedgeHigh, Workers: 2, Journal: jnlA, Sink: led})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 4; i++ {
		if err := svcA.Submit(simJob(fmt.Sprintf("j%d", i), int64(i))); err != nil {
			t.Fatalf("A submit j%d: %v", i, err)
		}
		if i <= 2 { // decide j1 and j2 in a known order
			if _, err := svcA.Wait(ctx, fmt.Sprintf("j%d", i)); err != nil {
				t.Fatalf("A wait j%d: %v", i, err)
			}
		}
	}
	// Wait wakes on the verdict, and the verdict's journal record is
	// written just after it: let all six records (four admits, two
	// verdicts) land before the crash.
	waitUntil(t, "A's six journal records", func() bool { return svcA.Counters().Counter(CtrJournalAppends) == 6 })
	// "Crash": abandon A without draining. Its journal file handle is
	// closed so B's appends are the only live writes.
	if err := jnlA.Close(); err != nil {
		t.Fatal(err)
	}

	// Daemon B: same journal, same ledger, healthy runner.
	jnlB, err := results.OpenJSONL(journalPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer jnlB.Close()
	svcB := New(Config{Run: fakeRun, Workers: 2, Journal: jnlB, Sink: led})
	rep, err := svcB.Recover(jnlB)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Decided) != 2 || len(rep.Open) != 2 || rep.Skipped != 0 {
		t.Fatalf("replay = %s, want 2 decided, 2 open, 0 skipped", rep)
	}
	for i := 1; i <= 4; i++ {
		if _, err := svcB.Wait(ctx, fmt.Sprintf("j%d", i)); err != nil {
			t.Fatalf("B wait j%d: %v", i, err)
		}
	}
	if err := svcB.Drain(ctx); err != nil {
		t.Fatalf("B drain: %v", err)
	}
	if got := svcB.Counters().Counter(CtrJobsRecovered); got != 2 {
		t.Errorf("jobs_recovered = %d, want 2", got)
	}

	// Reference: daemon C runs the same four jobs uninterrupted.
	svcC := New(Config{Run: fakeRun, Workers: 2})
	for i := 1; i <= 4; i++ {
		if err := svcC.Submit(simJob(fmt.Sprintf("j%d", i), int64(i))); err != nil {
			t.Fatalf("C submit j%d: %v", i, err)
		}
		if _, err := svcC.Wait(ctx, fmt.Sprintf("j%d", i)); err != nil {
			t.Fatalf("C wait j%d: %v", i, err)
		}
	}
	if err := svcC.Drain(ctx); err != nil {
		t.Fatalf("C drain: %v", err)
	}

	// Exactly one verdict per job, bit-identical to the uninterrupted
	// run modulo timing fields (Seq depends on completion order of the
	// recovered pair, IngestUS on wall clock).
	bv, cv := svcB.Verdicts(), svcC.Verdicts()
	if len(bv) != 4 || len(cv) != 4 {
		t.Fatalf("verdicts: B=%d C=%d, want 4 each", len(bv), len(cv))
	}
	norm := func(vs []Verdict) map[string]Verdict {
		out := make(map[string]Verdict, len(vs))
		for _, v := range vs {
			if out[v.JobID] != (Verdict{}) {
				t.Fatalf("duplicate verdict for %s", v.JobID)
			}
			v.Seq, v.IngestUS = 0, 0
			out[v.JobID] = v
		}
		return out
	}
	if nb, nc := norm(bv), norm(cv); !reflect.DeepEqual(nb, nc) {
		t.Fatalf("recovered verdicts diverge from uninterrupted run:\nB: %+v\nC: %+v", nb, nc)
	}
	// Recovered verdicts keep their pre-crash Seqs; new ones continue
	// past them.
	seqOf := func(id string) int64 {
		for _, v := range bv {
			if v.JobID == id {
				return v.Seq
			}
		}
		t.Fatalf("no verdict for %s", id)
		return 0
	}
	if seqOf("j1") != 1 || seqOf("j2") != 2 {
		t.Errorf("recovered seqs = %d, %d, want 1, 2", seqOf("j1"), seqOf("j2"))
	}
	if got := []int64{seqOf("j3"), seqOf("j4")}; !(got[0]+got[1] == 7 && got[0] != got[1]) {
		t.Errorf("re-run seqs = %v, want {3,4}", got)
	}
	// Paging by Seq stays coherent across the recovery boundary.
	page, more := svcB.VerdictsPage(2, 10)
	if len(page) != 2 || more {
		t.Errorf("page after seq 2 = %d verdicts (more=%v), want the 2 re-run jobs", len(page), more)
	}

	// The ledger holds exactly one verdict record per job — the
	// recovery re-appends deduplicated — and audits clean.
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(recs))
	for _, r := range recs {
		keys = append(keys, r.Key)
	}
	sort.Strings(keys)
	want := []string{"verdict|j1", "verdict|j2", "verdict|j3", "verdict|j4"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("ledger verdict keys = %v, want %v", keys, want)
	}
	if st := led.LedgerStats(); st.DedupHits < 2 {
		t.Errorf("dedup hits = %d, want >= 2 (the replayed j1, j2 appends)", st.DedupHits)
	}
	audit, err := ledger.Verify(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("ledger audit after recovery: %v", audit.Problems)
	}
}
