package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parastack/internal/experiment"
)

// testCtx returns a context bounded by the test's remaining time.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newHTTP returns a Service on fakeRun (unless cfg sets Run) and its
// Handler; the service is closed when the test ends.
func newHTTP(t *testing.T, cfg Config) (*Service, http.Handler) {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = fakeRun
	}
	svc := New(cfg)
	t.Cleanup(func() { svc.Close() })
	return svc, Handler(svc)
}

// serve runs one request through h and returns its status and body.
func serve(h http.Handler, method, target, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// samplesBody renders batches as a samples body, one JSONL line each.
func samplesBody(t testing.TB, batches ...[]StreamSample) string {
	t.Helper()
	var b strings.Builder
	for _, batch := range batches {
		line, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// silentStream returns 200 healthy samples and the 100 silent ones
// after them: a stream the detector reports as hung.
func silentStream() (healthy, silent []StreamSample) {
	for i := 0; i < 200; i++ {
		healthy = append(healthy, StreamSample{TUS: int64(i) * 400_000, Scrout: float64(1+i%5) / 6})
	}
	for i := 0; i < 100; i++ {
		silent = append(silent, StreamSample{TUS: int64(200+i) * 400_000, Scrout: 0})
	}
	return healthy, silent
}

// fedResponse decodes a samples response.
func fedResponse(t testing.TB, body string) (taken int, errMsg string) {
	t.Helper()
	var resp struct {
		Taken *int   `json:"taken"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Taken == nil {
		t.Fatalf("samples response %q: err=%v, want {\"taken\":n}", body, err)
	}
	return *resp.Taken, resp.Error
}

func TestServerRoundTrip(t *testing.T) {
	_, h := newHTTP(t, Config{})

	if code, _ := serve(h, http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}

	js, _ := json.Marshal(simJob("wire1", 7))
	if code, body := serve(h, http.MethodPost, "/jobs", string(js)); code != http.StatusAccepted || !strings.Contains(body, `"wire1"`) {
		t.Fatalf("submit = %d %s", code, body)
	}
	// A duplicate is refused with 409, and the handler carries on.
	if code, body := serve(h, http.MethodPost, "/jobs", string(js)); code != http.StatusConflict || !strings.Contains(body, ErrDuplicate.Error()) {
		t.Fatalf("duplicate submit = %d %s, want 409", code, body)
	}

	code, body := serve(h, http.MethodGet, "/jobs/wire1?wait=30s", "")
	var v Verdict
	if code != http.StatusOK || json.Unmarshal([]byte(body), &v) != nil {
		t.Fatalf("wait = %d %s", code, body)
	}
	if v.JobID != "wire1" || v.Status != VerdictOK {
		t.Fatalf("verdict = %+v", v)
	}

	if code, body := serve(h, http.MethodGet, "/jobs/wire1", ""); code != http.StatusOK || !strings.Contains(body, `"wire1"`) {
		t.Fatalf("GET /jobs/wire1 = %d %s", code, body)
	}
	for _, target := range []string{"/jobs/nope", "/jobs/nope?wait=1ms"} {
		if code, _ := serve(h, http.MethodGet, target, ""); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", target, code)
		}
	}
	for _, bad := range []string{"x", "-1s", "10"} {
		if code, _ := serve(h, http.MethodGet, "/jobs/wire1?wait="+bad, ""); code != http.StatusBadRequest {
			t.Fatalf("GET ?wait=%s = %d, want 400", bad, code)
		}
	}

	var page []Verdict
	if code, body := serve(h, http.MethodGet, "/verdicts", ""); code != http.StatusOK || json.Unmarshal([]byte(body), &page) != nil || len(page) != 1 {
		t.Fatalf("GET /verdicts = %d %s", code, body)
	}
	if _, body := serve(h, http.MethodGet, "/metrics", ""); !strings.Contains(body, "service_jobs_admitted 1\n") {
		t.Fatalf("metrics = %s", body)
	}

	// A path no route serves is 404; a route asked with the wrong
	// method is 405.
	if code, _ := serve(h, http.MethodPost, "/frobnicate", ""); code != http.StatusNotFound {
		t.Fatalf("POST /frobnicate = %d, want 404", code)
	}
	for _, c := range []struct{ method, target string }{
		{http.MethodDelete, "/jobs/wire1"},
		{http.MethodGet, "/jobs"},
		{http.MethodGet, "/jobs/wire1/samples"},
		{http.MethodPost, "/verdicts"},
	} {
		if code, _ := serve(h, c.method, c.target, ""); code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", c.method, c.target, code)
		}
	}
}

// A job still in flight reads as pending, with or without a wait that
// runs out first.
func TestHTTPJobPending(t *testing.T) {
	gate := make(chan struct{})
	svc, h := newHTTP(t, Config{Run: func(rc experiment.RunConfig) experiment.RunResult {
		<-gate
		return fakeRun(rc)
	}})
	defer close(gate)
	if err := svc.Submit(simJob("slow", 1)); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/jobs/slow", "/jobs/slow?wait=0s", "/jobs/slow?wait=20ms"} {
		if code, body := serve(h, http.MethodGet, target, ""); code != http.StatusAccepted || !strings.Contains(body, `"pending": true`) {
			t.Fatalf("GET %s = %d %s, want 202 pending", target, code, body)
		}
	}
}

// One samples request over a real connection is a long-lived, ordered
// stream: lines written one at a time reach the detector in order.
func TestServerStreamOverWire(t *testing.T) {
	svc := New(Config{Run: fakeRun})
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()
	defer svc.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"id":"feed","stream":true}`))
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v %v", resp, err)
	}
	resp.Body.Close()

	healthy, silent := silentStream()
	lines := []string{samplesBody(t, healthy), "\n", samplesBody(t, silent)}
	pr, pw := io.Pipe()
	go func() {
		for _, line := range lines {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
		}
		pw.Close()
	}()
	resp, err = http.Post(ts.URL+"/jobs/feed/samples", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if taken, msg := fedResponse(t, string(body)); resp.StatusCode != http.StatusOK || taken != 300 {
		t.Fatalf("feed = %d taken %d (%s), want 200 taken 300", resp.StatusCode, taken, msg)
	}

	resp, err = http.Get(ts.URL + "/jobs/feed?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK || v.Report == nil {
		t.Fatalf("wait = %d %+v err=%v, want a hang report", resp.StatusCode, v, err)
	}
}

func TestServerMalformedFrame(t *testing.T) {
	svc, h := newHTTP(t, Config{})
	if err := svc.Submit(JobSpec{ID: "feed", Stream: true}); err != nil {
		t.Fatal(err)
	}
	if code, _ := serve(h, http.MethodPost, "/jobs", "this is not json\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d, want 400", code)
	}
	good := samplesBody(t, []StreamSample{{TUS: 1, Scrout: 0.5}})
	for _, bad := range []string{"this is not json", `{"t_us":1,"scrout":0.5}`, `[{"t_us":1,"scrot":0.5}]`, `[] []`} {
		code, body := serve(h, http.MethodPost, "/jobs/feed/samples", good+bad+"\n"+good)
		if taken, _ := fedResponse(t, body); code != http.StatusBadRequest || taken != 1 {
			t.Fatalf("samples line %q = %d %s, want 400 after taking the 1 sample before it", bad, code, body)
		}
	}
	// The job survives: the line before each bad one was taken, the one
	// after it never read.
	if got := svc.Counters().Counter(CtrSamplesIn); got != 4 {
		t.Fatalf("samples_ingested = %d, want 4", got)
	}
}

// A refused line answers with the samples taken before it; resending
// from that line gives the verdict one uninterrupted feed gives.
func TestHTTPFeedResumesAfterBacklog(t *testing.T) {
	healthy, silent := silentStream()
	ref, rh := newHTTP(t, Config{})
	if err := ref.Submit(JobSpec{ID: "s", Stream: true}); err != nil {
		t.Fatal(err)
	}
	if code, body := serve(rh, http.MethodPost, "/jobs/s/samples", samplesBody(t, healthy, silent)); code != http.StatusOK {
		t.Fatalf("uninterrupted feed = %d %s", code, body)
	}
	want, err := ref.Wait(testCtx(t), "s")
	if err != nil || want.Report == nil {
		t.Fatalf("uninterrupted verdict = %+v err=%v, want a hang report", want, err)
	}

	// The wedged shard loop keeps the first line queued, so the second
	// overflows the backlog.
	svc, release := pinnedService(t, Config{StreamBacklog: len(healthy) + len(silent) - 1}, func(s *Service) {
		if err := s.Submit(JobSpec{ID: "s", Stream: true}); err != nil {
			t.Fatal(err)
		}
	})
	defer svc.Close()
	defer release()
	h := Handler(svc)
	code, body := serve(h, http.MethodPost, "/jobs/s/samples", samplesBody(t, healthy, silent))
	taken, msg := fedResponse(t, body)
	if code != http.StatusServiceUnavailable || taken != len(healthy) || !strings.Contains(msg, ErrBacklog.Error()) {
		t.Fatalf("overflowing feed = %d %s, want 503 naming ErrBacklog with taken %d", code, body, len(healthy))
	}
	release()
	waitUntil(t, "the backlog to be released", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.jobs["s"].pending == 0
	})
	if code, body := serve(h, http.MethodPost, "/jobs/s/samples", samplesBody(t, silent)); code != http.StatusOK {
		t.Fatalf("resent feed = %d %s", code, body)
	}
	got, err := svc.Wait(testCtx(t), "s")
	if err != nil || got.Report == nil {
		t.Fatalf("resumed verdict = %+v err=%v, want a hang report", got, err)
	}
	if got.Report.DetectedAt != want.Report.DetectedAt {
		t.Fatalf("resumed DetectedAt = %v, uninterrupted %v", got.Report.DetectedAt, want.Report.DetectedAt)
	}
}

func TestHTTPSurface(t *testing.T) {
	svc, h := newHTTP(t, Config{})

	post := func(body string) int {
		code, _ := serve(h, http.MethodPost, "/jobs", body)
		return code
	}
	if code := post(`{"id":"h1","bench":"CG","class":"D","procs":64,"platform":"tardis","fault":"computation","seed":1}`); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if code := post(`{"id":"h1","bench":"CG","class":"D","procs":64,"platform":"tardis","seed":2}`); code != http.StatusConflict {
		t.Fatalf("duplicate POST /jobs = %d, want 409", code)
	}
	if code := post(`{"id":"bad","bench":"NOPE","class":"D","procs":64,"platform":"tardis"}`); code != http.StatusBadRequest {
		t.Fatalf("invalid POST /jobs = %d, want 400", code)
	}
	if code := post(`{garbage`); code != http.StatusBadRequest {
		t.Fatalf("garbage POST /jobs = %d, want 400", code)
	}

	if _, err := svc.Wait(testCtx(t), "h1"); err != nil {
		t.Fatal(err)
	}
	if code, body := serve(h, http.MethodGet, "/verdicts", ""); code != http.StatusOK || !strings.Contains(body, `"h1"`) {
		t.Fatalf("GET /verdicts = %d %s", code, body)
	}
	if code, _ := serve(h, http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	if body := rec.Body.String(); rec.Code != http.StatusOK || !strings.Contains(body, "# TYPE service_jobs_admitted counter\nservice_jobs_admitted 1\n") {
		t.Fatalf("GET /metrics = %d %s", rec.Code, body)
	}
}

// A submit body is bounded; a larger one is refused with 413 before
// it is decoded whole.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	svc, h := newHTTP(t, Config{})
	body := `{"id":"big","stream":true,"bench":"` + strings.Repeat("x", maxSubmit) + `"}`
	if code, _ := serve(h, http.MethodPost, "/jobs", body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /jobs = %d, want 413", code)
	}
	if _, _, err := svc.Verdict("big"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oversized job was admitted (err=%v)", err)
	}
}

// A submit body holds exactly one JobSpec and nothing the JobSpec does
// not have: a misspelt field would otherwise run the job at a default.
func TestHTTPSubmitStrictBody(t *testing.T) {
	svc, h := newHTTP(t, Config{})
	for _, body := range []string{
		`{"id":"typo","stream":true,"alhpa":0.5}`,
		`{"id":"two","stream":true} {"id":"three","stream":true}`,
		`{"id":"tail","stream":true}}`,
	} {
		if code, _ := serve(h, http.MethodPost, "/jobs", body); code != http.StatusBadRequest {
			t.Fatalf("POST /jobs %s = %d, want 400", body, code)
		}
	}
	if got := svc.Counters().Counter(CtrJobsAdmitted); got != 0 {
		t.Fatalf("jobs_admitted = %d, want 0", got)
	}
	if code, _ := serve(h, http.MethodPost, "/jobs", "{\"id\":\"ok\",\"stream\":true}\n\n"); code != http.StatusAccepted {
		t.Fatalf("POST /jobs with trailing white space = %d, want 202", code)
	}
}

// One samples line is bounded by maxFrame; a longer one is refused
// with 413 and the samples before it stay taken.
func TestHTTPSamplesLineTooLong(t *testing.T) {
	svc, h := newHTTP(t, Config{})
	if err := svc.Submit(JobSpec{ID: "s", Stream: true}); err != nil {
		t.Fatal(err)
	}
	body := samplesBody(t, []StreamSample{{TUS: 1, Scrout: 0.5}}) + "[" + strings.Repeat(" ", maxFrame) + "]\n"
	code, resp := serve(h, http.MethodPost, "/jobs/s/samples", body)
	if taken, _ := fedResponse(t, resp); code != http.StatusRequestEntityTooLarge || taken != 1 {
		t.Fatalf("over-long samples line = %d %s, want 413 with taken 1", code, resp)
	}
}

func TestStatusOf(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{ErrQuota, http.StatusServiceUnavailable},
		{ErrBusy, http.StatusServiceUnavailable},
		{ErrBacklog, http.StatusServiceUnavailable},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrDuplicate, http.StatusConflict},
		{ErrNotStream, http.StatusConflict},
		{ErrUnknownJob, http.StatusNotFound},
		{fmt.Errorf("%w: disk full", ErrJournal), http.StatusInternalServerError},
		{fmt.Errorf("%w: got -1", ErrBadSample), http.StatusBadRequest},
		{errors.New("service: job needs an id"), http.StatusBadRequest},
		{json.Unmarshal([]byte("{"), new(JobSpec)), http.StatusBadRequest},
		{&http.MaxBytesError{Limit: maxSubmit}, http.StatusRequestEntityTooLarge},
		{bufio.ErrTooLong, http.StatusRequestEntityTooLarge},
	} {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// closedStatuses is every status the ingress routes may answer.
var closedStatuses = map[int]bool{
	http.StatusOK: true, http.StatusAccepted: true, http.StatusBadRequest: true,
	http.StatusNotFound: true, http.StatusConflict: true,
	http.StatusRequestEntityTooLarge: true, http.StatusInternalServerError: true,
	http.StatusServiceUnavailable: true,
}

// settle drains svc and requires a verdict for id within a bound:
// every admitted job, stream jobs included, ends in one.
func settle(t *testing.T, svc *Service, id string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Wait(ctx, id); err != nil {
		t.Fatalf("accepted job %q reached no verdict: %v", id, err)
	}
}

// An arbitrary submit body ends in a status from the closed set; an
// accepted job reaches a verdict.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"id":"j1","bench":"CG","class":"D","procs":64,"platform":"tardis","fault":"computation","seed":3}`,
		`{"id":"s","stream":true}`,
		`{"id":"s","stream":true,"alpha":0.5,"interval_ms":100}`,
		`{"id":"s","stream":true,"alhpa":0.5}`,
		`{"id":"s","stream":true,"alpha":2}`,
		`{"id":"a","stream":true}{"id":"b"}`,
		`{"id":"","stream":true}`,
		`{"id":"w","bench":"LU","class":"D","procs":256,"platform":"stampede","chaos":"heavy","wall_limit_sec":-1}`,
		`[1,2]`,
		`{garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := New(Config{Run: fakeRun, Workers: 1})
		defer svc.Close()
		code, resp := serve(Handler(svc), http.MethodPost, "/jobs", string(body))
		if !closedStatuses[code] || code == http.StatusOK {
			t.Fatalf("POST /jobs = %d %s, outside the closed set", code, resp)
		}
		if code != http.StatusAccepted {
			return
		}
		var ack struct{ Accepted string }
		if err := json.Unmarshal([]byte(resp), &ack); err != nil {
			t.Fatalf("accept body %q: %v", resp, err)
		}
		settle(t, svc, ack.Accepted)
	})
}

// An arbitrary samples body against a stream job ends in a status from
// the closed set, every sample on a line the handler parsed is counted
// as ingested or rejected, and the job still reaches a verdict.
func FuzzStreamFeed(f *testing.F) {
	healthy, silent := silentStream()
	for _, seed := range []string{
		samplesBody(f, healthy, silent),
		`[{"t_us":1,"scrout":0.5}]` + "\n\n" + `[{"t_us":2,"scrout":-1}]`,
		`[{"t_us":1,"scrout":0.5}]` + "\r\n" + `[]` + "\n" + `null`,
		`[{"t_us":1,"scrout":1e308},{"t_us":-5,"scrout":0}]`,
		`[{"t_us":1,"scrot":0.5}]`,
		`[] []`,
		`{"t_us":1}`,
		"not json",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := New(Config{Run: fakeRun, Workers: 1, StreamBacklog: 64})
		defer svc.Close()
		if err := svc.Submit(JobSpec{ID: "s", Stream: true}); err != nil {
			t.Fatal(err)
		}
		code, resp := serve(Handler(svc), http.MethodPost, "/jobs/s/samples", string(body))
		if !closedStatuses[code] || code == http.StatusAccepted {
			t.Fatalf("POST samples = %d %s, outside the closed set", code, resp)
		}
		taken, _ := fedResponse(t, resp)

		// The lines the handler parsed: every line up to the first that
		// does not decode, or up to the one Feed refused (the first
		// whose samples take the sum past taken).
		parsed := 0
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		sc.Buffer(nil, maxFrame)
		for sc.Scan() && parsed <= taken {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var batch []StreamSample
			if decodeOne(strings.NewReader(line), &batch) != nil {
				break
			}
			parsed += len(batch)
		}
		snap := svc.Counters()
		in, rejected := snap.Counter(CtrSamplesIn), snap.Counter(CtrSamplesDropped)
		if in != int64(taken) || in+rejected != int64(parsed) {
			t.Fatalf("ingested %d + rejected %d, taken %d, parsed %d", in, rejected, taken, parsed)
		}
		if code == http.StatusOK && parsed != taken {
			t.Fatalf("200 with taken %d of %d parsed samples", taken, parsed)
		}
		settle(t, svc, "s")
	})
}
