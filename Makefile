# Developer workflow for the ParaStack reproduction. Pure stdlib Go;
# no tools beyond the toolchain are required.

GO ?= go

.PHONY: all build test vet race fmt-check bench bench-smoke bench-scale-smoke paper-smoke sim-chain-smoke sweep-smoke fuzz-smoke chaos-smoke diagnose-smoke service-smoke recover-smoke ledger-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector matters here: campaigns run engines in parallel and
# share trace sinks / counter totals across workers.
race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# One-iteration pass over every benchmark: catches bit-rot in bench
# code without spending time on measurement.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Scaling-pass gate: a reduced rank sweep asserting events/sec does not
# collapse with world size, and the steady-state allocation ceilings on
# the campaign reuse path (see internal/experiment/scale_test.go and
# runner_test.go). The per-sample model refit is pinned
# allocation-free beside the runner: Add+Fit at a full window, and the
# daemon's StreamMonitor.Ingest. The runner's own gates ride along:
# objects and bytes per reused run, the goroutine count after runs that
# panicked, and a reused runner's goroutine count holding flat from run
# to run (its rank coroutines stay pooled). The per-MPI-call path is
# pinned too: every frame the MPI layer pushes is classified once and
# agrees with the prefix rule and the polling set, and PushFrame/Pop
# and a steady-state send to a known peer allocate nothing.
bench-scale-smoke:
	$(GO) test -run 'TestScaleSmoke$$|TestRunnerSteadyStateAllocs$$|TestRunnerPanicReleasesRanks$$|TestRunnerReuseHoldsGoroutines$$' -count=1 -v ./internal/experiment
	$(GO) test -run 'TestMPIFunctionClassification$$|TestPushFramePopZeroAlloc$$|TestSteadyStateSendZeroAlloc$$' -count=1 -v ./internal/stack ./internal/mpi
	$(GO) test -run 'TestAddFitZeroAllocs$$' -count=1 -v ./internal/model
	$(GO) test -run 'TestStreamMonitorIngestZeroAllocs$$' -count=1 -v ./internal/service

# Handoff smoke: process bodies run on pooled runtime coroutines, and
# whichever body parks drives the loop and switches straight to the
# next process through that process's rotating switch point; Run's
# goroutine takes part only when the loop comes to rest. So the
# executor's tests — generated programs whose dispatch log must not
# depend on how a run is sliced, the closure-on-Run's-goroutine rule,
# the one-switch-per-dispatch tally, a body's panic or Goexit
# forwarded past an unrelated waiter to Run's caller, Unwind and
# Shutdown paths, and the coroutine pool's lifecycle across Reset and
# garbage collection, released from a goroutine that never ran the
# engine — run repeatedly under the race detector on one and on four
# Ps. The MPI layer and the harness keep their simulation state in
# plain fields, ordered only by those switches, so they get the same
# treatment (a rank body's panic reaching the Runner's caller
# included); so does the daemon's admission → shard → pool pipeline,
# which has no timer left to hide an ordering bug behind. The event
# queue's property tests (random push, take, peek and cancel against a
# reference model) and the event pool's tests (its size holds across
# Reset cycles that spawn onto many shards) ride along.
sim-chain-smoke:
	$(GO) test -race -count=10 -cpu 1,4 -run 'Chain|Handoff|Serial|Lifecycle|Switch|EventHeap|EventPool' ./internal/sim
	$(GO) test -race -count=5 ./internal/mpi ./internal/experiment
	$(GO) test -race -count=5 ./internal/service

# Kill-and-resume check on the tiny built-in grid: run half the sweep
# (-halt-after is the deterministic crash stand-in), tear the last
# record as a crash mid-write would, then resume twice. The first
# resume re-runs the torn cell and finishes; the second must still
# load the log, which holds only if the first cut the torn tail before
# appending. Exercises the durable log, the resume index, and the CLI.
SWEEP_SMOKE_LOG := /tmp/parastack-sweep-smoke.jsonl
sweep-smoke:
	@rm -f $(SWEEP_SMOKE_LOG)
	$(GO) run ./cmd/pssweep -grid smoke -out $(SWEEP_SMOKE_LOG) -halt-after 2
	truncate -s -25 $(SWEEP_SMOKE_LOG)
	$(GO) run ./cmd/pssweep -grid smoke -out $(SWEEP_SMOKE_LOG) -resume
	$(GO) run ./cmd/pssweep -grid smoke -out $(SWEEP_SMOKE_LOG) -resume
	@rm -f $(SWEEP_SMOKE_LOG)

# Short fuzz of the results-log reader (corrupted/torn JSONL must never
# panic Load or sneak past its schema check), of the hang classifier
# (arbitrary serialized snapshots must never panic Analyze or accuse an
# unobserved rank), of the admission-journal replay (corrupted or
# torn journals must never panic ReplayJournal or double-admit a job),
# of the model's maintained window (after any Add/Halve sequence it
# must equal the sorted history and fit bit-identically to a rebuild),
# and of the ECDF's counted distinct values (after any Insert/Replace/
# Reset sequence every query must answer as a plain sorted slice does).
# Fixed seed corpus + 5s of mutation each. Minimising a newly
# interesting input is capped at 1s (the default is 60s), so the
# budget goes to fuzzing rather than to minimisation.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=5s -fuzzminimizetime=1s ./internal/sweep
	$(GO) test -run='^$$' -fuzz=FuzzAnalyze -fuzztime=5s -fuzzminimizetime=1s ./internal/diagnose/waitfor
	$(GO) test -run='^$$' -fuzz=FuzzProof -fuzztime=5s -fuzzminimizetime=1s ./internal/ledger
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=5s -fuzzminimizetime=1s ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzModelIncremental -fuzztime=5s -fuzzminimizetime=1s ./internal/model
	$(GO) test -run='^$$' -fuzz=FuzzECDF -fuzztime=5s -fuzzminimizetime=1s ./internal/stats

# Chaos smoke: a short clean campaign under the aggressive "heavy"
# chaos profile, under the race detector, asserting zero false
# positives — the detector's own failures must never read as hangs.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke$$' -count=1 -v ./internal/chaos

# Diagnosis smoke: the root-cause property grid under the race detector
# — fault kinds × workloads × seeds through the real harness, requiring
# the diagnosed cause to equal the injected one (100% under clean
# chaos) — plus the chaos-degradation property (under "heavy" chaos the
# classifier may say "unknown" but never a wrong named cause).
diagnose-smoke:
	$(GO) test -race -run 'TestCausePropertyGrid$$|TestCauseDegradesUnderChaos$$' -count=1 -v ./internal/diagnose/waitfor

# Daemon smoke: build the real parastackd binary with the race
# detector, start it on a unix socket, drive three jobs through the
# wire protocol (an injected hang, a clean run, a silent Scrout
# stream), assert all three verdicts, and require a graceful zero-exit
# SIGTERM drain (see cmd/parastackd/main_test.go).
service-smoke:
	$(GO) test -race -run 'TestDaemonSmoke$$' -count=1 -v ./cmd/parastackd

# Crash-recovery smoke: build parastackd with the race detector, run a
# burst of jobs with an admission journal and a verdict ledger, SIGKILL
# the daemon after the first verdict, restart it on the same journal,
# and require exactly one verdict per job — bit-identical to
# uninterrupted in-process runs — with the verdict ledger auditing
# clean (see cmd/parastackd/recover_test.go). Then the second-crash
# case: a restart over a journal whose last admit was torn must still
# replay the next job it acks (internal/service/journal_test.go).
recover-smoke:
	$(GO) test -race -run 'TestKillAndRecoverDaemon$$' -count=1 -v ./cmd/parastackd
	$(GO) test -race -run 'TestRecoverOverTornTail$$' -count=1 -v ./internal/service

# Ledger smoke: the tamper-evidence contract end to end on disk. A
# sweep runs through the Merkle ledger sink, is killed mid-grid and
# resumed; psverify must pass the intact ledger; a third resume must be
# pure cache hits (0 executed — the ledger as shared-results cache);
# then one byte of the first record in a committed pack is corrupted with dd and
# psverify must fail, naming the damaged record's cell key.
LEDGER_SMOKE_DIR := /tmp/parastack-ledger-smoke
ledger-smoke:
	@rm -rf $(LEDGER_SMOKE_DIR)
	$(GO) run ./cmd/pssweep -grid smoke -ledger $(LEDGER_SMOKE_DIR) -halt-after 2
	$(GO) run ./cmd/pssweep -grid smoke -ledger $(LEDGER_SMOKE_DIR) -resume
	$(GO) run ./cmd/psverify -out $(LEDGER_SMOKE_DIR)
	@$(GO) run ./cmd/pssweep -grid smoke -ledger $(LEDGER_SMOKE_DIR) -resume > /tmp/parastack-ledger-smoke.out \
		&& grep -q '(0 executed' /tmp/parastack-ledger-smoke.out \
		|| { echo "ledger-smoke: third pass was not pure cache hits:"; cat /tmp/parastack-ledger-smoke.out; exit 1; }
	@f=$$(ls $(LEDGER_SMOKE_DIR)/packs/* | head -1); \
	key=$$(sed -n 's/.*"key":"\([^"]*\)".*/\1/p' $$f | head -1); \
	printf '\377' | dd of=$$f bs=1 seek=5 count=1 conv=notrunc status=none; \
	if $(GO) run ./cmd/psverify -out $(LEDGER_SMOKE_DIR) >/tmp/parastack-ledger-smoke.out 2>&1; then \
		echo "ledger-smoke: psverify passed a corrupted ledger"; exit 1; fi; \
	grep -qF "$$key" /tmp/parastack-ledger-smoke.out || { \
		echo "ledger-smoke: psverify did not name the damaged key $$key:"; \
		cat /tmp/parastack-ledger-smoke.out; exit 1; }
	@rm -rf $(LEDGER_SMOKE_DIR) /tmp/parastack-ledger-smoke.out
	@echo "ledger-smoke: OK"

# Paper byte-identity gate: the whole small-count evaluation through
# pssweep -grid paper must print exactly cmd/pssweep/testdata/
# paper.golden; every -table replayed from that log with -resume must
# execute nothing and the replays, joined by blank lines, must equal the
# full output; every -fig must hash to testdata/figures.sha256; and a
# traced rerun must print the same bytes and leave a trace in which every
# line is a JSON event (see cmd/pssweep/papersmoke_test.go). About four
# minutes on two CPUs, so it sits behind a build tag, outside `go test
# ./...`.
paper-smoke:
	$(GO) test -tags papersmoke -run 'TestPaperSmoke$$' -count=1 -v -timeout 30m ./cmd/pssweep

# The gate PRs must pass.
ci: fmt-check vet build race bench-smoke bench-scale-smoke sim-chain-smoke sweep-smoke fuzz-smoke chaos-smoke diagnose-smoke service-smoke recover-smoke ledger-smoke paper-smoke
