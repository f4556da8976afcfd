package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"parastack/internal/service"
)

// buildDaemon builds parastackd with the race detector into a temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "parastackd")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building parastackd: %v", err)
	}
	return bin
}

// startDaemon starts bin on an ephemeral loopback port and returns it,
// a channel that receives its exit, and its base URL. The daemon
// prints its address once the journal is replayed and the listener is
// bound, so the URL is ready to use on return.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, chan error, string) {
	t.Helper()
	daemon := exec.Command(bin, append([]string{"-http", "127.0.0.1:0"}, args...)...)
	daemon.Stderr = os.Stderr
	out, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatalf("starting parastackd: %v", err)
	}
	sc := bufio.NewScanner(out)
	base := ""
	for base == "" && sc.Scan() {
		fmt.Println(sc.Text())
		if addr, ok := strings.CutPrefix(sc.Text(), "parastackd: serving HTTP on "); ok {
			base = "http://" + addr
		}
	}
	exited := make(chan error, 1)
	go func() {
		for sc.Scan() {
			fmt.Println(sc.Text())
		}
		exited <- daemon.Wait()
	}()
	if base == "" {
		t.Fatalf("parastackd exited before serving HTTP: %v", <-exited)
	}
	return daemon, exited, base
}

// call sends one request, requires status want, and returns the body.
func call(t *testing.T, method, url, body string, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d %s, want %d", method, url, resp.StatusCode, b, want)
	}
	return b
}

// submit posts a job and requires it admitted.
func submit(t *testing.T, base string, js service.JobSpec) {
	t.Helper()
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	call(t, http.MethodPost, base+"/jobs", string(b), http.StatusAccepted)
}

// waitVerdict blocks on GET /jobs/{id}?wait= until the verdict lands.
func waitVerdict(t *testing.T, base, id string) service.Verdict {
	t.Helper()
	var v service.Verdict
	if err := json.Unmarshal(call(t, http.MethodGet, base+"/jobs/"+id+"?wait=300s", "", http.StatusOK), &v); err != nil {
		t.Fatalf("verdict for %s: %v", id, err)
	}
	return v
}

// verdicts reads the first page of decided verdicts.
func verdicts(t *testing.T, base string) []service.Verdict {
	t.Helper()
	var page []service.Verdict
	if err := json.Unmarshal(call(t, http.MethodGet, base+"/verdicts", "", http.StatusOK), &page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestDaemonSmoke is the end-to-end service smoke behind
// `make service-smoke`: it builds the real parastackd binary with the
// race detector, starts it on a loopback port, drives three jobs over
// HTTP — an injected computation hang, a clean run, and an external
// Scrout stream that goes silent — asserts all three verdicts, and
// checks that SIGTERM produces a graceful zero-exit drain.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	daemon, exited, base := startDaemon(t, buildDaemon(t), "-workers", "2", "-drain-timeout", "60s")
	defer daemon.Process.Kill() // no-op after a clean exit

	call(t, http.MethodGet, base+"/healthz", "", http.StatusOK)

	// Job 1: an injected computation hang — must be detected, with a
	// root cause attached.
	submit(t, base, service.JobSpec{ID: "hang", Bench: "CG", Class: "D", Procs: 64,
		Platform: "tardis", Fault: "computation", Seed: 3})

	// Job 2: a clean run — must complete with no report.
	submit(t, base, service.JobSpec{ID: "clean", Bench: "CG", Class: "D", Procs: 64,
		Platform: "tardis", Fault: "none", Seed: 4})

	// Job 3: an external Scrout stream that goes silent, fed as one
	// JSONL line of healthy samples and one of silent ones.
	submit(t, base, service.JobSpec{ID: "stream", Stream: true})
	var healthy, silent []service.StreamSample
	for i := 0; i < 200; i++ {
		healthy = append(healthy, service.StreamSample{TUS: int64(i) * 400_000, Scrout: float64(1+i%5) / 6})
	}
	for i := 0; i < 100; i++ {
		silent = append(silent, service.StreamSample{TUS: int64(200+i) * 400_000, Scrout: 0})
	}
	var body strings.Builder
	enc := json.NewEncoder(&body)
	for _, batch := range [][]service.StreamSample{healthy, silent} {
		if err := enc.Encode(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := string(call(t, http.MethodPost, base+"/jobs/stream/samples", body.String(), http.StatusOK)); !strings.Contains(got, `"taken": 300`) {
		t.Fatalf("feed response = %s, want 300 samples taken", got)
	}

	v := waitVerdict(t, base, "hang")
	if v.Report == nil || !v.Detected {
		t.Fatalf("hang job verdict = %+v, want a detected report", v)
	}
	if v.Cause == "" {
		t.Errorf("hang verdict carries no root cause")
	}
	v = waitVerdict(t, base, "clean")
	if !v.Completed || v.Report != nil {
		t.Fatalf("clean job verdict = %+v, want completed with no report", v)
	}
	v = waitVerdict(t, base, "stream")
	if v.Report == nil {
		t.Fatalf("stream job verdict = %+v, want a report for the silent stream", v)
	}

	if n := len(verdicts(t, base)); n != 3 {
		t.Fatalf("verdicts = %d, want 3", n)
	}

	// Graceful shutdown: SIGTERM must drain and exit zero.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}
