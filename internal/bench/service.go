package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"parastack/internal/service"
)

// The parastackd service suite behind BENCH_service.json. Three
// benchmarks pin the daemon's hot paths:
//
//   - service/job_burst: a burst of real CG/D/64 computation-hang
//     simulation jobs submitted through the full pipeline (admission →
//     shards → worker pool) and awaited. Reports whole-job
//     throughput (jobs/sec), the p99 admission→dispatch ingest latency,
//     and aggregate simulated events/sec.
//   - service/stream_ingest: Scrout samples fed through Feed, the
//     shard queue into a StreamMonitor — the daemon-side cost
//     of an external feeder. EventsPerSec is samples/sec here.
//   - monitor/stream_ingest: the bare StreamMonitor.Ingest hot loop
//     (model add + refit + streak bookkeeping), isolating detector cost
//     from pipeline cost.
//
// cmd/psbench -bench-service-json (and `make bench-json`) writes the
// artifact; `make service-smoke` exercises the same pipeline through
// the real binary and socket instead.

// serviceBurstJobs sizes the job burst: large enough to keep every
// worker busy and the shard queues backed up, small enough that the
// suite stays in CI budget.
const serviceBurstJobs = 48

// serviceStreamSamples sizes the stream benchmark's sample volume.
const serviceStreamSamples = 1 << 17

// RunServiceSuite executes the daemon throughput suite and assembles
// the BENCH_service.json report.
func RunServiceSuite() Report {
	rep := Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	rep.Benchmarks = append(rep.Benchmarks, benchServiceJobBurst())
	rep.Benchmarks = append(rep.Benchmarks, benchServiceStreamIngest())

	r := testing.Benchmark(benchStreamMonitorIngest)
	res := Result{
		Name:        "monitor/stream_ingest",
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if res.NsPerOp > 0 {
		res.EventsPerSec = 1e9 / res.NsPerOp // one sample per op
	}
	rep.Benchmarks = append(rep.Benchmarks, res)
	return rep
}

// benchServiceJobBurst pushes a burst of real simulation jobs through a
// Service and measures whole-job throughput and ingest latency.
func benchServiceJobBurst() Result {
	svc := service.New(service.Config{})
	defer svc.Close()

	start := time.Now()
	ids := make([]string, 0, serviceBurstJobs)
	for i := 0; i < serviceBurstJobs; i++ {
		id := fmt.Sprintf("bench-%d", i)
		err := svc.Submit(service.JobSpec{
			ID: id, Bench: "CG", Class: "D", Procs: 64,
			Platform: "tardis", Fault: "computation", Seed: int64(i + 1),
		})
		if err != nil {
			// Default queue depths dwarf the burst; an error here is a
			// benchmark bug, not backpressure.
			panic(fmt.Sprintf("bench: submit %s: %v", id, err))
		}
		ids = append(ids, id)
	}
	var events uint64
	var ingest []float64 // ns
	for _, id := range ids {
		v, err := svc.Wait(context.Background(), id)
		if err != nil {
			panic(fmt.Sprintf("bench: wait %s: %v", id, err))
		}
		events += v.Events
		ingest = append(ingest, float64(v.IngestUS)*1e3)
	}
	elapsed := time.Since(start)

	res := Result{
		Name:       "service/job_burst",
		Iterations: serviceBurstJobs,
		NsPerOp:    float64(elapsed.Nanoseconds()) / serviceBurstJobs,
		Ranks:      64,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.JobsPerSec = serviceBurstJobs / sec
		res.EventsPerSec = float64(events) / sec
	}
	res.P99IngestNs = percentile(ingest, 0.99)
	return res
}

// benchServiceStreamIngest measures the daemon-side cost of an external
// Scrout feeder: Feed → shard → StreamMonitor.
func benchServiceStreamIngest() Result {
	svc := service.New(service.Config{
		// The backlog must admit the whole volume; the shard queue's
		// bound still applies, so the measured path is the real pipeline.
		StreamBacklog: serviceStreamSamples + 1,
	})
	if err := svc.Submit(service.JobSpec{ID: "feeder", Stream: true}); err != nil {
		panic(fmt.Sprintf("bench: stream submit: %v", err))
	}
	// A varied healthy signal: the monitor refits continuously but never
	// verifies, so every sample pays the full ingest path.
	batch := make([]service.StreamSample, 1024)
	start := time.Now()
	sent := 0
	for sent < serviceStreamSamples {
		for i := range batch {
			n := sent + i
			batch[i] = service.StreamSample{TUS: int64(n) * 400, Scrout: float64(1+n%7) / 8}
		}
		for {
			err := svc.Feed("feeder", batch)
			if err == nil {
				break
			}
			if err == service.ErrBusy {
				time.Sleep(50 * time.Microsecond) // real backpressure: retry
				continue
			}
			panic(fmt.Sprintf("bench: feed: %v", err))
		}
		sent += len(batch)
	}
	// Drain processes every queued sample before returning.
	if err := svc.Close(); err != nil {
		panic(fmt.Sprintf("bench: close: %v", err))
	}
	elapsed := time.Since(start)

	res := Result{
		Name:       "service/stream_ingest",
		Iterations: sent,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(sent),
	}
	if res.NsPerOp > 0 {
		res.EventsPerSec = 1e9 / res.NsPerOp // samples/sec
	}
	return res
}

// benchStreamMonitorIngest is the bare detector hot loop.
func benchStreamMonitorIngest(b *testing.B) {
	sm := service.NewStreamMonitor(0.001, 0)
	// Steady state: model at capacity before measuring.
	for i := 0; i < 2048; i++ {
		sm.Ingest(service.StreamSample{TUS: int64(i), Scrout: float64(1+i%7) / 8})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.Ingest(service.StreamSample{TUS: int64(2048 + i), Scrout: float64(1+i%7) / 8})
	}
}

// percentile returns the p-quantile (0..1) of xs by nearest-rank on the
// sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
