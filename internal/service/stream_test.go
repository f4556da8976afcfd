package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"parastack/internal/detect"
	"parastack/internal/results"
)

// A significance level outside (0, 1) would panic the geometric test on
// the shard goroutine at the first suspicion; it must not get past
// Submit.
func TestStreamAlphaValidatedAtSubmit(t *testing.T) {
	s := New(Config{Run: fakeRun})
	defer s.Close()
	bad := []float64{-0.001, 1, 1.5, math.NaN(), math.Inf(1)}
	for i, a := range bad {
		err := s.Submit(JobSpec{ID: fmt.Sprintf("bad%d", i), Stream: true, Alpha: a})
		if err == nil || !strings.Contains(err.Error(), "alpha") {
			t.Errorf("alpha %v: Submit error = %v, want an alpha rejection", a, err)
		}
	}
	for i, a := range []float64{0, 0.001, 0.5} {
		if err := s.Submit(JobSpec{ID: fmt.Sprintf("ok%d", i), Stream: true, Alpha: a}); err != nil {
			t.Errorf("alpha %v rejected: %v", a, err)
		}
	}
	snap := s.Counters()
	if got := snap.Counter(CtrJobsRejected); got != int64(len(bad)) {
		t.Errorf("jobs_rejected = %d, want %d", got, len(bad))
	}
	if got := snap.Counter(CtrJobsAdmitted); got != 3 {
		t.Errorf("jobs_admitted = %d, want 3", got)
	}
}

// A journal written before the check existed (or edited by hand) can
// hold an open stream job with a bad alpha: replay closes it with a
// failure verdict, and its neighbours recover normally.
func TestRecoverClosesBadAlphaStreamJob(t *testing.T) {
	bad := JobSpec{ID: "bad", Stream: true, Alpha: 2}
	good := JobSpec{ID: "good", Stream: true}
	jnl := &memSink{recs: []results.Record{
		journalLine(t, JournalKindAdmit, "bad", &bad, nil),
		journalLine(t, JournalKindAdmit, "good", &good, nil),
	}}
	s := New(Config{Run: fakeRun})
	defer s.Close()
	if _, err := s.Recover(jnl); err != nil {
		t.Fatalf("recover: %v", err)
	}
	v, decided, err := s.Verdict("bad")
	if err != nil || !decided {
		t.Fatalf("bad-alpha job after recovery: decided=%v err=%v, want a verdict", decided, err)
	}
	if v.Status != VerdictFailed || !strings.Contains(v.Error, "alpha") {
		t.Errorf("verdict = %+v, want failed with an alpha error", v)
	}
	// The healthy neighbour is resident and takes samples.
	if err := s.Feed("good", []StreamSample{{TUS: 1, Scrout: 0.5}}); err != nil {
		t.Errorf("feed to recovered stream job: %v", err)
	}
	if got := s.Counters().Counter(CtrJobsRecovered); got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}
}

func TestFeedRejectsBadSamples(t *testing.T) {
	const backlog = 8
	s := New(Config{Run: fakeRun, StreamBacklog: backlog})
	defer s.Close()
	if err := s.Submit(JobSpec{ID: "f", Stream: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25} {
		// The bad value sits last in a full-backlog batch: were any of
		// it charged to the job, the batch after would not fit.
		batch := make([]StreamSample, backlog)
		batch[backlog-1].Scrout = v
		if err := s.Feed("f", batch); !errors.Is(err, ErrBadSample) {
			t.Fatalf("scrout %v: Feed error = %v, want ErrBadSample", v, err)
		}
	}
	snap := s.Counters()
	if got := snap.Counter(CtrSamplesDropped); got != 4*backlog {
		t.Errorf("samples_rejected = %d, want %d (whole batches)", got, 4*backlog)
	}
	if got := snap.Counter(CtrSamplesIn); got != 0 {
		t.Errorf("samples_ingested = %d, want 0", got)
	}
	if err := s.Feed("f", make([]StreamSample, backlog)); err != nil {
		t.Fatalf("full-backlog feed after rejections: %v (a rejected batch was charged)", err)
	}
}

// -0 is a legal sample and must come out of the model as +0, so the
// threshold in verdict JSON does not depend on the zero's sign.
func TestFeedNormalisesNegativeZero(t *testing.T) {
	s := New(Config{Run: fakeRun})
	defer s.Close()
	if err := s.Submit(JobSpec{ID: "f", Stream: true}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	negZero := math.Copysign(0, -1)
	var batch []StreamSample
	for i := 0; i < 200; i++ {
		v := float64(i%5) / 6
		if v == 0 {
			v = negZero
		}
		batch = append(batch, StreamSample{TUS: int64(i), Scrout: v})
	}
	for i := 0; i < 100; i++ {
		batch = append(batch, StreamSample{TUS: int64(200 + i), Scrout: negZero})
	}
	if err := s.Feed("f", batch); err != nil {
		t.Fatalf("feed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, "f")
	if err != nil || v.Report == nil {
		t.Fatalf("wait: verdict=%+v err=%v, want a hang report", v, err)
	}
	if bits := math.Float64bits(v.Report.Threshold); bits != 0 {
		t.Errorf("threshold = %v (bits %#x), want +0", v.Report.Threshold, bits)
	}
}

// JSON carries neither NaN nor Inf, so over HTTP the reachable bad
// value is a negative one.
func TestServerFeedRejectsBadSample(t *testing.T) {
	svc, h := newHTTP(t, Config{})
	if err := svc.Submit(JobSpec{ID: "feed", Stream: true}); err != nil {
		t.Fatal(err)
	}
	batch := []StreamSample{{TUS: 1, Scrout: 0.5}, {TUS: 2, Scrout: -1}}
	code, body := serve(h, http.MethodPost, "/jobs/feed/samples", samplesBody(t, batch))
	if taken, msg := fedResponse(t, body); code != http.StatusBadRequest || taken != 0 || !strings.Contains(msg, ErrBadSample.Error()) {
		t.Fatalf("feed = %d %s, want 400 naming ErrBadSample with nothing taken", code, body)
	}
	if got := svc.Counters().Counter(CtrSamplesDropped); got != 2 {
		t.Errorf("samples_rejected = %d, want 2", got)
	}
	// The job survives the refusal.
	if code, body := serve(h, http.MethodPost, "/jobs/feed/samples", samplesBody(t, batch[:1])); code != http.StatusOK {
		t.Fatalf("feed after rejection = %d %s", code, body)
	}
}

// Steady-state ingest — a full model window, no verdict — must not
// allocate: the model's buffers are sized once, at construction.
func TestStreamMonitorIngestZeroAllocs(t *testing.T) {
	sm := NewStreamMonitor(0, 0)
	n := 0
	ingest := func() {
		sm.Ingest(StreamSample{TUS: int64(n), Scrout: float64(1+n%7) / 8})
		n++
	}
	for n < 3*1024 {
		ingest()
	}
	if avg := testing.AllocsPerRun(2000, ingest); avg != 0 {
		t.Fatalf("Ingest allocates %v times per sample at a full window, want 0", avg)
	}
	if sm.Report() != nil {
		t.Fatal("the healthy ramp produced a verdict")
	}
}

// Shard assignment decides which shard loop orders a job's envelopes
// and so the order records reach the journal: the inlined hash must be
// hash/fnv's 32-bit FNV-1a, for every shard count.
func TestShardOfMatchesFNV(t *testing.T) {
	ids := []string{"", "a", "j1", "s0", "s3", "job-a", "feeder", "wire1",
		"tenant-42/run-000137", "ünïcödé", "\x00\xff", strings.Repeat("x", 300)}
	for i := 0; i < 64; i++ {
		ids = append(ids, fmt.Sprintf("j%d", i))
	}
	for _, id := range ids {
		h := fnv.New32a()
		h.Write([]byte(id))
		sum := h.Sum32()
		for _, shards := range []int{1, 2, 3, 4, 7, 64} {
			if got, want := shardOf(id, shards), int(sum)%shards; got != want {
				t.Errorf("shardOf(%q, %d) = %d, hash/fnv gives %d", id, shards, got, want)
			}
		}
	}
}

func TestStreamMonitorFiresOnStreak(t *testing.T) {
	sm := NewStreamMonitor(0, 0)
	// Healthy phase: varied Scrout keeps the streak broken.
	for i := 0; i < 200; i++ {
		if rep := sm.Ingest(StreamSample{TUS: int64(i), Scrout: float64(1+i%5) / 6}); rep != nil {
			t.Fatalf("verdict during healthy phase at sample %d", i)
		}
	}
	// Hang phase: zeros below the threshold must eventually verify.
	var fired *int
	for i := 0; i < 200; i++ {
		if rep := sm.Ingest(StreamSample{TUS: int64(1000 + i), Scrout: 0}); rep != nil {
			fired = &i
			if rep.Type != detect.HangCommunication {
				t.Errorf("stream report type = %v, want communication", rep.Type)
			}
			if rep.Suspicions < 2 {
				t.Errorf("suspicion streak = %d, want a multi-sample streak", rep.Suspicions)
			}
			break
		}
	}
	if fired == nil {
		t.Fatal("200 zero samples never produced a verdict")
	}
	if sm.Report() == nil {
		t.Fatal("Report() nil after a verdict")
	}
	// Post-verdict samples are counted but don't change the report.
	before := sm.Report()
	sm.Ingest(StreamSample{TUS: 9999, Scrout: 1})
	if sm.Report() != before {
		t.Error("post-verdict sample replaced the report")
	}
	if sm.Samples() != 200+*fired+1+1 {
		t.Errorf("Samples() = %d, want %d", sm.Samples(), 200+*fired+2)
	}
}
