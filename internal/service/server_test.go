package service

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testCtx returns a context bounded by the test's remaining time.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// startServer spins up a Service on fakeRun behind a loopback TCP
// listener and returns a connected client.
func startServer(t *testing.T, cfg Config) (*Service, *Server, *Client) {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = fakeRun
	}
	svc := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, ln)
	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Shutdown()
		svc.Close()
	})
	return svc, srv, cl
}

func TestServerRoundTrip(t *testing.T) {
	_, _, cl := startServer(t, Config{})

	if resp, err := cl.Do(Request{Op: OpPing}); err != nil || !resp.OK {
		t.Fatalf("ping: %+v err=%v", resp, err)
	}

	js := simJob("wire1", 7)
	resp, err := cl.Do(Request{Op: OpSubmit, Job: &js})
	if err != nil || !resp.OK || resp.ID != "wire1" {
		t.Fatalf("submit: %+v err=%v", resp, err)
	}
	// Duplicate over the wire comes back as an error frame, not a break.
	if resp, _ := cl.Do(Request{Op: OpSubmit, Job: &js}); resp.OK || resp.Error == "" {
		t.Fatalf("duplicate submit response = %+v, want error", resp)
	}

	resp, err = cl.Do(Request{Op: OpWait, ID: "wire1", TimeoutMS: 30000})
	if err != nil || !resp.OK || resp.Verdict == nil {
		t.Fatalf("wait: %+v err=%v", resp, err)
	}
	if resp.Verdict.JobID != "wire1" || resp.Verdict.Status != VerdictOK {
		t.Fatalf("verdict = %+v", resp.Verdict)
	}

	resp, err = cl.Do(Request{Op: OpVerdict, ID: "wire1"})
	if err != nil || !resp.OK || resp.Verdict == nil {
		t.Fatalf("verdict op: %+v err=%v", resp, err)
	}
	if resp, _ := cl.Do(Request{Op: OpVerdict, ID: "nope"}); resp.OK {
		t.Fatalf("verdict for unknown id = %+v, want error", resp)
	}

	resp, err = cl.Do(Request{Op: OpVerdicts})
	if err != nil || !resp.OK || len(resp.Verdicts) != 1 {
		t.Fatalf("verdicts: %+v err=%v", resp, err)
	}

	resp, err = cl.Do(Request{Op: OpStats})
	if err != nil || !resp.OK || resp.Counters[CtrJobsAdmitted] != 1 {
		t.Fatalf("stats: %+v err=%v", resp, err)
	}

	if resp, _ := cl.Do(Request{Op: "frobnicate"}); resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("unknown op response = %+v", resp)
	}
}

func TestServerStreamOverWire(t *testing.T) {
	_, _, cl := startServer(t, Config{})

	js := JobSpec{ID: "feed", Stream: true}
	if resp, err := cl.Do(Request{Op: OpSubmit, Job: &js}); err != nil || !resp.OK {
		t.Fatalf("submit: %+v err=%v", resp, err)
	}
	var healthy, hang []StreamSample
	for i := 0; i < 200; i++ {
		healthy = append(healthy, StreamSample{TUS: int64(i) * 400_000, Scrout: float64(1+i%5) / 6})
	}
	for i := 0; i < 100; i++ {
		hang = append(hang, StreamSample{TUS: int64(200+i) * 400_000, Scrout: 0})
	}
	if resp, err := cl.Do(Request{Op: OpFeed, ID: "feed", Samples: healthy}); err != nil || !resp.OK {
		t.Fatalf("feed healthy: %+v err=%v", resp, err)
	}
	if resp, err := cl.Do(Request{Op: OpFeed, ID: "feed", Samples: hang}); err != nil || !resp.OK {
		t.Fatalf("feed hang: %+v err=%v", resp, err)
	}
	resp, err := cl.Do(Request{Op: OpWait, ID: "feed", TimeoutMS: 30000})
	if err != nil || !resp.OK || resp.Verdict == nil || resp.Verdict.Report == nil {
		t.Fatalf("wait: %+v err=%v", resp, err)
	}
}

func TestServerMalformedFrame(t *testing.T) {
	_, srv, _ := startServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decode error frame: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "bad frame") {
		t.Fatalf("malformed frame response = %+v", resp)
	}
}

func TestHTTPSurface(t *testing.T) {
	svc := New(Config{Run: fakeRun})
	defer svc.Close()
	h := Handler(svc)

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec
	}
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	if rec := post(`{"id":"h1","bench":"CG","class":"D","procs":64,"platform":"tardis","fault":"computation","seed":1}`); rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d %s", rec.Code, rec.Body)
	}
	if rec := post(`{"id":"h1","bench":"CG","class":"D","procs":64,"platform":"tardis","seed":2}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate POST /jobs = %d, want 409", rec.Code)
	}
	if rec := post(`{"id":"bad","bench":"NOPE","class":"D","procs":64,"platform":"tardis"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid POST /jobs = %d, want 400", rec.Code)
	}
	if rec := post(`{garbage`); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage POST /jobs = %d, want 400", rec.Code)
	}

	if _, err := svc.Wait(testCtx(t), "h1"); err != nil {
		t.Fatal(err)
	}
	rec := get("/verdicts?id=h1")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /verdicts?id=h1 = %d %s", rec.Code, rec.Body)
	}
	var v Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.JobID != "h1" {
		t.Fatalf("verdict body = %s err=%v", rec.Body, err)
	}
	if rec := get("/verdicts?id=ghost"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown verdict = %d, want 404", rec.Code)
	}
	if rec := get("/verdicts"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"h1"`) {
		t.Fatalf("GET /verdicts = %d %s", rec.Code, rec.Body)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	if rec := get("/metrics"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), CtrJobsAdmitted+" 1") {
		t.Fatalf("GET /metrics = %d %s", rec.Code, rec.Body)
	}
}
