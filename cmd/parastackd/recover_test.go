package main

import (
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/ledger"
	"parastack/internal/noise"
	"parastack/internal/service"
	"parastack/internal/workload"
)

// TestKillAndRecoverDaemon is the crash-recovery smoke behind
// `make recover-smoke`: build the real daemon with the race detector,
// submit a burst of jobs with an admission journal and a verdict
// ledger, SIGKILL the daemon after the first verdict lands, restart it
// on the same journal — and require exactly one verdict per job,
// bit-identical to uninterrupted in-process runs, with the ledger
// auditing clean.
func TestKillAndRecoverDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs (and kills) the real daemon")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	ledgerDir := filepath.Join(dir, "ledger")
	args := []string{"-journal", journal, "-ledger", ledgerDir, "-workers", "2", "-drain-timeout", "120s"}

	jobs := []service.JobSpec{
		{ID: "hang3", Bench: "CG", Class: "D", Procs: 64, Platform: "tardis", Fault: "computation", Seed: 3},
		{ID: "clean4", Bench: "CG", Class: "D", Procs: 64, Platform: "tardis", Fault: "none", Seed: 4},
		{ID: "hang5", Bench: "CG", Class: "D", Procs: 64, Platform: "tardis", Fault: "computation", Seed: 5},
	}

	daemon, exited, base := startDaemon(t, bin, args...)
	defer daemon.Process.Kill()
	for _, js := range jobs {
		submit(t, base, js)
	}
	// Mid-burst: wait for the first verdict, then pull the plug.
	waitVerdict(t, base, jobs[0].ID)
	if err := daemon.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	<-exited

	// Restart on the same journal: recovery must re-install the decided
	// verdict and re-run the open jobs.
	daemon, exited, base = startDaemon(t, bin, args...)
	defer daemon.Process.Kill()
	got := make(map[string]service.Verdict)
	for _, js := range jobs {
		got[js.ID] = waitVerdict(t, base, js.ID)
	}
	all := verdicts(t, base)
	if len(all) != len(jobs) {
		t.Fatalf("verdicts after recovery = %d, want exactly %d (one per job)", len(all), len(jobs))
	}
	seen := map[string]bool{}
	for _, v := range all {
		if seen[v.JobID] {
			t.Fatalf("duplicate verdict for %s", v.JobID)
		}
		seen[v.JobID] = true
	}

	// Graceful exit this time.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}

	// Every verdict must be bit-identical to an uninterrupted
	// in-process run of the same configuration.
	for _, js := range jobs {
		v := got[js.ID]
		params := workload.MustLookup(js.Bench, js.Class, js.Procs)
		prof, err := noise.Lookup(js.Platform)
		if err != nil {
			t.Fatal(err)
		}
		fk, err := fault.Parse(js.Fault)
		if err != nil {
			t.Fatal(err)
		}
		direct := experiment.Run(experiment.RunConfig{
			Params: params, Platform: prof, Seed: js.Seed,
			FaultKind: fk, Monitor: &core.Config{},
		})
		if !reflect.DeepEqual(v.Report, direct.Report) {
			t.Errorf("%s report diverges after recovery:\ndaemon %+v\ndirect %+v", js.ID, v.Report, direct.Report)
		}
		if v.Cause != direct.Cause || !reflect.DeepEqual(v.Diagnosis, direct.Diagnosis) {
			t.Errorf("%s diagnosis diverges: daemon (%q, %+v) direct (%q, %+v)",
				js.ID, v.Cause, v.Diagnosis, direct.Cause, direct.Diagnosis)
		}
		if v.Completed != direct.Completed || v.Detected != direct.Detected {
			t.Errorf("%s judgement diverges: daemon (%v,%v) direct (%v,%v)",
				js.ID, v.Completed, v.Detected, direct.Completed, direct.Detected)
		}
	}

	// The verdict ledger survived the SIGKILL and audits clean, holding
	// exactly one verdict record per job.
	store, err := ledger.OpenDirStore(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	audit, err := ledger.Verify(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.OK() {
		t.Fatalf("ledger audit after kill+recover: %v", audit.Problems)
	}
	led, err := ledger.Open(store, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	recs, err := led.Records()
	if err != nil {
		t.Fatal(err)
	}
	ledgerKeys := map[string]int{}
	for _, r := range recs {
		ledgerKeys[r.Key]++
	}
	for _, js := range jobs {
		if n := ledgerKeys["verdict|"+js.ID]; n != 1 {
			t.Errorf("ledger holds %d records for %s, want exactly 1", n, js.ID)
		}
	}
}
