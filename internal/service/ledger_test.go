package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parastack/internal/ledger"
)

// Every decided verdict must land in the configured results sink,
// keyed "verdict|<job id>", and the resulting ledger must audit clean.
func TestVerdictSinkFeedsLedger(t *testing.T) {
	store := ledger.NewMemStore()
	defer store.Close()
	led, err := ledger.Open(store, ledger.Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Run: fakeRun, Sink: led})
	const n = 5
	for i := 0; i < n; i++ {
		if err := svc.Submit(simJob(jobID(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if _, err := svc.Wait(ctx, jobID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The daemon's shutdown order: sink closes after Drain, committing
	// the final batch.
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	snap := svc.Counters()
	if got := snap.Counters[CtrSinkAppends]; got != n {
		t.Fatalf("%s = %d, want %d", CtrSinkAppends, got, n)
	}
	if got := snap.Counters[CtrSinkErrors]; got != 0 {
		t.Fatalf("%s = %d, want 0", CtrSinkErrors, got)
	}

	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("ledger holds %d verdicts, want %d", len(recs), n)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		var v Verdict
		if err := json.Unmarshal(r.Payload, &v); err != nil {
			t.Fatalf("verdict payload for %q: %v", r.Key, err)
		}
		if r.Key != "verdict|"+v.JobID {
			t.Fatalf("record key %q does not match verdict job %q", r.Key, v.JobID)
		}
		if v.Seq == 0 {
			t.Fatalf("verdict %q has no pagination seq", v.JobID)
		}
		seen[v.JobID] = true
	}
	if len(seen) != n {
		t.Fatalf("distinct verdicts in ledger = %d, want %d", len(seen), n)
	}

	rep, err := ledger.Verify(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verdict ledger audit: %v", rep.Problems)
	}
}

func jobID(i int) string { return "job-" + string(rune('a'+i)) }

// A failing sink must never block or fail the verdict itself — only
// the error counter moves.
func TestVerdictSinkFailureDoesNotBlockVerdict(t *testing.T) {
	store := ledger.NewMemStore()
	led, err := ledger.Open(store, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil { // closed sink: every Append fails
		t.Fatal(err)
	}

	svc := New(Config{Run: fakeRun, Sink: led})
	defer svc.Close()
	if err := svc.Submit(simJob("j1", 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := svc.Wait(ctx, "j1")
	if err != nil {
		t.Fatalf("verdict blocked by failing sink: %v", err)
	}
	if v.Status != VerdictOK {
		t.Fatalf("verdict status = %q", v.Status)
	}
	// Wait wakes on the verdict; the sink append follows it.
	waitUntil(t, "the failed sink append to be counted", func() bool {
		return svc.Counters().Counter(CtrSinkErrors) == 1
	})
}

// VerdictsPage windows the decision order with a dense seq cursor.
func TestVerdictsPage(t *testing.T) {
	svc := New(Config{Run: fakeRun})
	defer svc.Close()
	const n = 7
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := svc.Submit(simJob(jobID(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
		// Await each verdict before the next submit so decision order —
		// and therefore seq — is deterministic.
		if _, err := svc.Wait(ctx, jobID(i)); err != nil {
			t.Fatal(err)
		}
	}

	var got []Verdict
	var after int64
	pages := 0
	for {
		page, more := svc.VerdictsPage(after, 3)
		got = append(got, page...)
		pages++
		if !more {
			break
		}
		after = page[len(page)-1].Seq
	}
	if len(got) != n || pages != 3 {
		t.Fatalf("paged %d verdicts in %d pages, want %d in 3", len(got), pages, n)
	}
	for i, v := range got {
		if v.Seq != int64(i+1) {
			t.Fatalf("verdict %d seq = %d, want dense %d", i, v.Seq, i+1)
		}
	}

	// Defaults and caps.
	page, more := svc.VerdictsPage(0, 0)
	if len(page) != n || more {
		t.Fatalf("default limit page = %d verdicts, more=%v", len(page), more)
	}
	if page, _ := svc.VerdictsPage(int64(n), 3); len(page) != 0 {
		t.Fatalf("page past the end = %d verdicts", len(page))
	}
	if page, _ := svc.VerdictsPage(int64(n)+100, 3); len(page) != 0 {
		t.Fatalf("page far past the end = %d verdicts", len(page))
	}
}

// GET /verdicts honors after/limit, flags truncation with X-More, and
// rejects malformed cursors.
func TestHTTPVerdictsPagination(t *testing.T) {
	svc := New(Config{Run: fakeRun})
	defer svc.Close()
	h := Handler(svc)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 5
	for i := 0; i < n; i++ {
		if err := svc.Submit(simJob(jobID(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(ctx, jobID(i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	rec := get("/verdicts?limit=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /verdicts?limit=2 = %d", rec.Code)
	}
	if rec.Header().Get("X-More") != "true" {
		t.Fatal("truncated page missing X-More header")
	}
	var page []Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || len(page) != 2 {
		t.Fatalf("page body = %s (err %v)", rec.Body, err)
	}

	rec = get("/verdicts?after=2&limit=100")
	if rec.Header().Get("X-More") != "" {
		t.Fatal("final page carries X-More")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || len(page) != n-2 {
		t.Fatalf("after=2 body = %s (err %v)", rec.Body, err)
	}
	if page[0].Seq != 3 {
		t.Fatalf("after=2 first seq = %d, want 3", page[0].Seq)
	}

	for _, bad := range []string{"/verdicts?after=-1", "/verdicts?after=x", "/verdicts?limit=0", "/verdicts?limit=-3", "/verdicts?limit=x"} {
		if rec := get(bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}
