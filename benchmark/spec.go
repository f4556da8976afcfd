package main

import "encoding/json"

// The tables in this file are the benchmark's contract: BENCHMARK.json
// is generated from them (`go run ./benchmark -spec`), every run prints
// exactly these metric names, and -check gates on these bounds.

// defaultSeconds is run_seconds: how long one run measures.
const defaultSeconds = 15

// setupRepeats is how many times a run sets up; setup_s is the median,
// so two disturbed set-ups do not move it.
const setupRepeats = 5

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. Every workload reports every one of
// them, each in the workload's own unit of work (see README.md):
//
//	workload          work_per_s            unit_wall_ms_p50                alloc_bytes_per_unit
//	campaign_narrow   simulated events/s    one Runner.Run per 100k events  per rank-run
//	wide_serial       simulated events/s    one Runner.Run                  per rank-run
//	wide_windowed     simulated events/s    one Runner.Run                  per rank-run
//	stream_ingest     samples accepted/s    one round of 4 batches          per sample
//	daemon_durable    jobs/s (closed loop)  job latency from due time       per job
//
// The bounds are the contract's maximum. Two ten-seed sets on the
// 2-core reference box, 40 minutes apart, had interquartile spreads of
// 5-17% on the timed metrics and medians 12-18% apart (the box drifts),
// so a tighter bound would reject unchanged code.
var endToEnd = []metricDef{
	{"work_per_s", "1/s", "higher", 0.25},
	{"unit_wall_ms_p50", "ms", "lower", 0.25},
	{"alloc_bytes_per_unit", "B", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the attribution metrics of the traced pass, named
// layer.metric after the package they measure. Kernels are short direct
// drives of a layer's public API and read the same on every workload;
// counts and spans are 0 on a workload that never enters the layer.
var perLayer = []metricDef{
	// sim: kernels
	{"sim.event_ns", "ns", "lower", 0},
	{"sim.handoff_ns", "ns", "lower", 0},
	{"sim.handoff_xp_ns", "ns", "lower", 0},
	{"sim.sleep_ns", "ns", "lower", 0},
	{"sim.wakeall_ns_per_proc", "ns", "lower", 0},
	{"sim.reset_us_per_rank", "us", "lower", 0},
	{"sim.shutdown_us_per_rank", "us", "lower", 0},
	// sim: counts over the workload's fixed leading runs
	{"sim.events", "count", "lower", 0},
	{"sim.sleeps", "count", "lower", 0},
	{"sim.spawns", "count", "lower", 0},
	{"sim.queue_depth_max", "count", "lower", 0},
	{"sim.windows", "count", "lower", 0},
	{"sim.window_shards", "count", "lower", 0},
	{"sim.horizon_stalls", "count", "lower", 0},
	{"sim.events_per_window", "ratio", "higher", 0},
	// mpi: kernels
	{"mpi.sendrecv_ns", "ns", "lower", 0},
	{"mpi.allreduce_ns_per_rank", "ns", "lower", 0},
	{"mpi.world_new_us_per_rank", "us", "lower", 0},
	{"mpi.world_reset_us_per_rank", "us", "lower", 0},
	// workload
	{"workload.events_per_rank_iter", "count", "lower", 0},
	// core
	{"core.sample_round_ns_256", "ns", "lower", 0},
	{"core.sample_round_ns_4096", "ns", "lower", 0},
	{"core.monitor_share_wide", "ratio", "lower", 0},
	{"core.samples", "count", "lower", 0},
	{"core.traces", "count", "lower", 0},
	{"core.doublings", "count", "lower", 0},
	{"core.verifications", "count", "lower", 0},
	{"core.detect_delay_sim_s_p50", "s", "lower", 0},
	// model, stats
	{"model.add_fit_ns", "ns", "lower", 0},
	{"stats.ecdf_reset_ns_1024", "ns", "lower", 0},
	{"stats.runs_test_ns_1024", "ns", "lower", 0},
	// diagnose/waitfor
	{"waitfor.capture_analyze_us_64", "us", "lower", 0},
	// experiment
	{"experiment.run_busy_s", "s", "lower", 0},
	{"experiment.fixed_cost_ms", "ms", "lower", 0},
	{"experiment.worker_scaling", "ratio", "higher", 0},
	{"experiment.runs_per_s", "1/s", "higher", 0},
	// service
	{"service.submit_us_p50", "us", "lower", 0},
	{"service.submit_us_p99", "us", "lower", 0},
	{"service.ingest_ms_p50", "ms", "lower", 0},
	{"service.job_latency_ms_p90", "ms", "lower", 0},
	{"service.job_latency_ms_p99", "ms", "lower", 0},
	{"service.gen_late_ms_max", "ms", "lower", 0},
	{"service.run_busy_s", "s", "lower", 0},
	{"service.worker_util", "ratio", "higher", 0},
	{"service.feed_us_p50", "us", "lower", 0},
	{"service.feed_refused_ratio", "ratio", "lower", 0},
	{"service.submit_refused_ratio", "ratio", "lower", 0},
	{"service.batches_flushed", "count", "lower", 0},
	{"service.samples_per_batch", "ratio", "higher", 0},
	{"service.stream_monitor_ingest_ns", "ns", "lower", 0},
	{"service.drain_ms", "ms", "lower", 0},
	{"service.recover_ms", "ms", "lower", 0},
	{"service.replay_us_per_rec", "us", "lower", 0},
	// results
	{"results.journal_append_us_p50", "us", "lower", 0},
	{"results.journal_append_us_p99", "us", "lower", 0},
	{"results.journal_busy_s", "s", "lower", 0},
	{"results.journal_appends", "count", "lower", 0},
	{"results.jsonl_read_us_per_rec", "us", "lower", 0},
	// sweep
	{"sweep.log_append_us_p50", "us", "lower", 0},
	{"sweep.log_load_us_per_rec", "us", "lower", 0},
	// ledger
	{"ledger.append_us_p50", "us", "lower", 0},
	{"ledger.close_flush_ms", "ms", "lower", 0},
	{"ledger.verify_us_per_rec", "us", "lower", 0},
	{"ledger.batches", "count", "lower", 0},
	{"ledger.dedup_hits", "count", "higher", 0},
	// bench: the instrument itself, for noise diagnosis
	{"bench.wall_s", "s", "lower", 0},
	{"bench.cpu_s", "s", "lower", 0},
	{"bench.cpu_util", "ratio", "higher", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.verdict_correct_ratio", "ratio", "higher", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
