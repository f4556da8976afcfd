package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"parastack/internal/service"
)

// streamIngest is the external-feeder path: no simulator, four stream
// jobs fed round-robin by one generator through a default-configured
// service.
type streamIngest struct {
	svc *service.Service
	// batches[j][k] is stream j's k-th batch. Every Feed gets its own
	// slice: Feed keeps the slice it is handed, so a generator that
	// refilled one buffer would change samples the service still holds.
	batches [][][]service.StreamSample
	// tailFrom[j] is the timestamp of stream j's first zero sample, -1
	// for the stream that stays healthy.
	tailFrom []int64
}

const (
	streamJobs       = 4
	streamBatch      = 1024
	streamPerJob     = 1_000_000
	streamZeroTail   = 64
	streamIntervalUS = 400
	// streamRateCeiling bounds the generated volume to what the time
	// budget could possibly consume (samples per second per stream),
	// so a short run does not generate a million samples per stream.
	streamRateCeiling = 100_000
	feedBackoff       = 50 * time.Microsecond
)

func streamID(j int) string { return fmt.Sprintf("s%d", j) }

// streamBatches generates stream j's batches: the healthy ramp
// (1+(n+phase)%7)/8 with a seeded phase — it never holds k consecutive
// low values, so the alpha bound is not what this workload tests — and,
// for every stream but the last, a tail of zeros ending the final batch.
func streamBatches(rng *rand.Rand, j, perJob int) (batches [][]service.StreamSample, tailFrom int64) {
	phase := rng.Intn(7)
	nb := (perJob + streamBatch - 1) / streamBatch
	total := nb * streamBatch
	tailFrom = -1
	for k := 0; k < nb; k++ {
		b := make([]service.StreamSample, streamBatch)
		for i := range b {
			n := k*streamBatch + i
			b[i] = service.StreamSample{TUS: int64(n) * streamIntervalUS, Scrout: float64(1+(n+phase)%7) / 8}
			if j < streamJobs-1 && n >= total-streamZeroTail {
				b[i].Scrout = 0
				if tailFrom < 0 {
					tailFrom = b[i].TUS
				}
			}
		}
		batches = append(batches, b)
	}
	return batches, tailFrom
}

func (w *streamIngest) setup(c *runCtx) error {
	perJob := c.scaled(streamPerJob, 4*streamBatch)
	if ceiling := int(c.seconds * streamRateCeiling); perJob > ceiling && ceiling >= 4*streamBatch {
		perJob = ceiling
	}
	rng := rand.New(rand.NewSource(c.seed))
	w.batches = make([][][]service.StreamSample, streamJobs)
	w.tailFrom = make([]int64, streamJobs)
	for j := range w.batches {
		w.batches[j], w.tailFrom[j] = streamBatches(rng, j, perJob)
	}

	// Warm-up on a throwaway service: goroutine stacks, timers and the
	// model's scratch grow here, not inside the measured phase.
	warm := service.New(service.Config{})
	if err := warm.Submit(service.JobSpec{ID: "warm", Stream: true}); err != nil {
		return err
	}
	wb, _ := streamBatches(rng, streamJobs-1, 8*streamBatch)
	for _, b := range wb {
		if _, err := feedRetrying(warm, "warm", b, nil, 0); err != nil {
			return err
		}
	}
	if err := warm.Close(); err != nil {
		return err
	}

	w.svc = service.New(service.Config{})
	for j := 0; j < streamJobs; j++ {
		if err := w.svc.Submit(service.JobSpec{ID: streamID(j), Stream: true}); err != nil {
			return err
		}
	}
	return nil
}

func (w *streamIngest) discard() {
	if w.svc != nil {
		_ = w.svc.Close() // a discarded set-up's service: nothing was fed, nothing to report
	}
	w.svc, w.batches, w.tailFrom = nil, nil, nil
}

// feedRetrying feeds one batch in a closed loop: a refusal for
// backpressure backs off and retries; any other error is final. It
// returns how many times the batch was refused.
func feedRetrying(svc *service.Service, id string, batch []service.StreamSample, tr *tracer, parent int) (refused int, err error) {
	for {
		t0 := time.Now()
		err := svc.Feed(id, batch)
		if err == nil {
			tr.add(0, parent, "service", "feed", id, t0, time.Now())
			return refused, nil
		}
		if !errors.Is(err, service.ErrBusy) && !errors.Is(err, service.ErrBacklog) {
			return refused, err
		}
		refused++
		time.Sleep(feedBackoff)
	}
}

func (w *streamIngest) measure(c *runCtx) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := c.tr.reserve(1)
	start := time.Now()
	deadline := start.Add(c.measured())

	var rounds []float64 // ms per round-robin round
	refused, calls := 0, 0
	fed := make([]int, streamJobs)
	feed := func(j, k int) {
		c.attempted++
		r, err := feedRetrying(w.svc, streamID(j), w.batches[j][k], c.tr, root)
		refused += r
		calls += r + 1
		if err != nil {
			c.failed++
			c.check(fmt.Sprintf("feed %s batch %d", streamID(j), k), false, "%v", err)
			return
		}
		fed[j] += len(w.batches[j][k])
	}
	nb := len(w.batches[0])
	k := 0
	for ; k < nb-1 && time.Now().Before(deadline); k++ {
		// Acceptances come in bursts (a shard frees a whole batch of
		// backlog at a time), so the steady unit is the round — one
		// batch accepted on every stream — not the single Feed.
		t0 := time.Now()
		for j := 0; j < streamJobs; j++ {
			feed(j, k)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	// The final batch of each stream carries its zero tail, whenever
	// the budget ends.
	for j := 0; j < streamJobs; j++ {
		feed(j, nb-1)
	}
	t0 := time.Now()
	err := w.svc.Close()
	end := time.Now()
	c.tr.add(0, root, "service", "drain", "", t0, end)
	c.tr.add(root, 0, "bench", "measured_phase", "", start, end)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fmt.Errorf("service close: %w", err)
	}

	counters := w.svc.Counters()
	accepted := counters.Counter(service.CtrSamplesIn)
	c.counts["batches_per_stream"] = k + 1
	c.counts["batches_generated_per_stream"] = nb
	c.counts["samples_accepted"] = int(accepted)

	correct := 0
	var ingest []float64
	verdicts := make(map[string]service.Verdict)
	for _, v := range w.svc.Verdicts() {
		verdicts[v.JobID] = v
	}
	for j := 0; j < streamJobs; j++ {
		v, ok := verdicts[streamID(j)]
		if !ok || v.Status != service.VerdictOK || v.Samples != fed[j] {
			c.check("verdict "+streamID(j), false, "present=%v status=%q samples=%d fed=%d", ok, v.Status, v.Samples, fed[j])
			continue
		}
		ingest = append(ingest, float64(v.IngestUS)/1e3)
		lastTUS := w.batches[j][nb-1][streamBatch-1].TUS
		if from := w.tailFrom[j]; from >= 0 {
			at := int64(-1)
			if v.Report != nil {
				at = v.Report.DetectedAt.Microseconds()
			}
			if at >= from && at <= lastTUS {
				correct++
			} else {
				c.check("verdict "+streamID(j), false, "detected_at=%dus, zero tail is [%d,%d]us", at, from, lastTUS)
			}
		} else if v.Completed && v.Report == nil {
			correct++
		} else {
			c.check("verdict "+streamID(j), false, "healthy stream: completed=%v report=%v", v.Completed, v.Report)
		}
	}
	c.check("ground_truth", correct == streamJobs, "%d of %d streams matched", correct, streamJobs)
	c.set("bench.verdict_correct_ratio", float64(correct)/streamJobs)

	sec := end.Sub(start).Seconds()
	c.set("work_per_s", float64(accepted)/sec)
	c.set("unit_wall_ms_p50", median(rounds))
	if accepted > 0 {
		c.set("alloc_bytes_per_unit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(accepted))
	}
	c.set("service.ingest_ms_p50", median(ingest))
	c.set("service.feed_refused_ratio", float64(refused)/float64(calls))
	c.set("service.drain_ms", end.Sub(t0).Seconds()*1e3)
	flushed := counters.Counter(service.CtrBatchesFlushed)
	c.set("service.batches_flushed", float64(flushed))
	if flushed > 0 {
		c.set("service.samples_per_batch", float64(accepted)/float64(flushed))
	}
	if feeds := spanSeconds(c.tr.snapshot(), "service", "feed"); len(feeds) > 0 {
		c.set("service.feed_us_p50", median(feeds)*1e6)
	}
	return nil
}
