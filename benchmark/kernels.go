package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"parastack/internal/core"
	"parastack/internal/diagnose/waitfor"
	"parastack/internal/experiment"
	"parastack/internal/fault"
	"parastack/internal/model"
	"parastack/internal/mpi"
	"parastack/internal/noise"
	"parastack/internal/results"
	"parastack/internal/service"
	"parastack/internal/sim"
	"parastack/internal/stats"
	"parastack/internal/sweep"
	"parastack/internal/topology"
	"parastack/internal/workload"
)

// Kernels are short direct drives of one layer's public API at a
// stated shape. They run in a child process of their own before the
// workloads, at GOMAXPROCS=1 unless stated, so that a per-layer cost
// can be multiplied by a workload's count of that operation and held
// against the end-to-end number. Each kernel reports the median of
// kernelRounds rounds.

const (
	kernelRounds  = 3
	kernelWorld   = 4096
	kernelPPN     = 8
	kernelHistory = 1024
)

// perOp times fn, which performs n operations, kernelRounds times and
// returns the median nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	var rounds []float64
	for i := 0; i < kernelRounds; i++ {
		t0 := time.Now()
		fn()
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// ramp is the healthy stream signal, reused as model and stats input.
func ramp(n int) float64 { return float64(1+n%7) / 8 }

// runKernels measures every kernel. scale shrinks the 4096-rank shapes
// and the iteration counts for the smoke test; dir holds the files the
// log kernels write.
func runKernels(scale float64, dir string) (map[string]float64, error) {
	runtime.GOMAXPROCS(1)
	m := make(map[string]float64)
	scaled := func(n, min int) int { return scaleCount(n, min, scale) }
	world := scaled(kernelWorld, 64) / kernelPPN * kernelPPN
	ops := scaled(200_000, 2_000)

	simKernels(m, world, ops)
	mpiKernels(m, world)
	coreKernels(m, world, scaled(20_000, 500))
	modelKernels(m, scaled(20_000, 500))
	m["waitfor.capture_analyze_us_64"] = waitforKernel(scaled(2_000, 50))
	m["experiment.fixed_cost_ms"] = fixedCostKernel(scaled(60, 5))
	if err := logKernels(m, dir, scaled(2_000, 100)); err != nil {
		return nil, err
	}
	return m, nil
}

func simKernels(m map[string]float64, world, ops int) {
	// 64 tickers rescheduling themselves: schedule + fire through a
	// deep queue, both sift directions.
	m["sim.event_ns"] = perOp(ops, func() {
		e := sim.NewEngine(1)
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < ops {
				e.After(time.Duration(1+n%37)*time.Microsecond, tick)
			}
		}
		for i := 0; i < 64; i++ {
			e.After(time.Microsecond, tick)
		}
		e.RunAll()
	})
	handoff := func() {
		e := sim.NewEngine(1)
		blocked := e.SpawnNow("blocked", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				p.Suspend()
			}
		})
		e.SpawnNow("waker", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				blocked.Wake()
				p.Yield()
			}
		})
		e.RunAll()
		e.Shutdown()
	}
	m["sim.handoff_ns"] = perOp(ops, handoff)
	// The same round trip with every core available: the handoff
	// migrates between Ps, which is what a single-engine run at
	// GOMAXPROCS>1 pays.
	runtime.GOMAXPROCS(runtime.NumCPU())
	m["sim.handoff_xp_ns"] = perOp(ops, handoff)
	runtime.GOMAXPROCS(1)
	m["sim.sleep_ns"] = perOp(ops, func() {
		e := sim.NewEngine(1)
		e.SpawnNow("p", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		e.RunAll()
		e.Shutdown()
	})
	// One batched wake of a whole world, the mechanism behind every
	// collective's completion.
	const wakeRounds = 8
	m["sim.wakeall_ns_per_proc"] = perOp(world*wakeRounds, func() {
		e := sim.NewEngine(1)
		procs := make([]*sim.Proc, world)
		for i := range procs {
			procs[i] = e.SpawnNow("p", func(p *sim.Proc) {
				for r := 0; r < wakeRounds; r++ {
					p.Suspend()
				}
			})
		}
		for r := 0; r < wakeRounds; r++ {
			e.At(sim.Time(2*r+1)*time.Microsecond, func() {
				e.WakeAllAt(e.Now()+time.Microsecond, append(e.GetProcSlice(world), procs...))
			})
		}
		e.RunAll()
		e.Shutdown()
	})
}

// parkedWorld builds a world whose ranks have all suspended.
func parkedWorld(size int) (*sim.Engine, *mpi.World) {
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, size, mpi.Latency{})
	w.Launch(func(r *mpi.Rank) { r.Proc().Suspend() })
	eng.RunAll()
	return eng, w
}

func mpiKernels(m map[string]float64, world int) {
	// Construction, shutdown and reset of a whole world: the per-run
	// fixed cost a campaign pays, per rank.
	var build, shutdown, reset, wreset []float64
	perRankUS := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(world) }
	for i := 0; i < kernelRounds; i++ {
		eng := sim.NewEngine(1)
		t0 := time.Now()
		w := mpi.NewWorld(eng, world, mpi.Latency{})
		build = append(build, perRankUS(time.Since(t0)))
		w.Launch(func(r *mpi.Rank) { r.Proc().Suspend() })
		eng.RunAll()
		t0 = time.Now()
		eng.Shutdown()
		shutdown = append(shutdown, perRankUS(time.Since(t0)))
		t0 = time.Now()
		eng.Reset(2)
		reset = append(reset, perRankUS(time.Since(t0)))
		t0 = time.Now()
		w.Reset(mpi.Latency{})
		wreset = append(wreset, perRankUS(time.Since(t0)))
	}
	m["mpi.world_new_us_per_rank"] = median(build)
	m["sim.shutdown_us_per_rank"] = median(shutdown)
	m["sim.reset_us_per_rank"] = median(reset)
	m["mpi.world_reset_us_per_rank"] = median(wreset)

	// Ring exchange with zero latency and no compute: host time per
	// matched message is matching plus two handoffs.
	const ringIters = 16
	m["mpi.sendrecv_ns"] = perOp(world*ringIters, func() {
		eng := sim.NewEngine(1)
		w := mpi.NewWorld(eng, world, mpi.Latency{})
		w.Launch(func(r *mpi.Rank) {
			next, prev := (r.ID()+1)%world, (r.ID()+world-1)%world
			for i := 0; i < ringIters; i++ {
				r.SendRecv(next, 0, 8, prev, 0)
			}
		})
		eng.RunAll()
		eng.Shutdown()
	})
	const reduceIters = 16
	m["mpi.allreduce_ns_per_rank"] = perOp(world*reduceIters, func() {
		eng := sim.NewEngine(1)
		w := mpi.NewWorld(eng, world, mpi.Latency{})
		w.Launch(func(r *mpi.Rank) {
			for i := 0; i < reduceIters; i++ {
				r.Allreduce(8)
			}
		})
		eng.RunAll()
		eng.Shutdown()
	})
}

func coreKernels(m map[string]float64, world, rounds int) {
	// A steady-state sampling round on a parked world, at two world
	// sizes: if the larger costs much more, a round is O(world), not
	// O(monitored set).
	sample := func(size int) float64 {
		eng, w := parkedWorld(size)
		defer eng.Shutdown()
		mon := core.New(w, topology.New(size/kernelPPN, kernelPPN, 1), core.Config{})
		for i := 0; i <= kernelHistory; i++ {
			mon.SampleOnce()
		}
		return perOp(rounds, func() {
			for i := 0; i < rounds; i++ {
				mon.SampleOnce()
			}
		})
	}
	small := 256
	if small > world {
		small = world
	}
	m["core.sample_round_ns_256"] = sample(small)
	m["core.sample_round_ns_4096"] = sample(world)
}

func modelKernels(m map[string]float64, ops int) {
	mdl := model.New(kernelHistory)
	for i := 0; i < 2*kernelHistory; i++ {
		mdl.Add(ramp(i))
	}
	n := 0
	m["model.add_fit_ns"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			mdl.Add(ramp(n))
			mdl.Fit()
			n++
		}
	})
	samples := make([]float64, kernelHistory)
	for i := range samples {
		samples[i] = ramp(i * 3)
	}
	var ecdf stats.ECDF
	m["stats.ecdf_reset_ns_1024"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			ecdf.Reset(samples)
		}
	})
	var keep stats.RunsResult
	m["stats.runs_test_ns_1024"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			keep = stats.RunsTest(samples, 0.05)
		}
	})
	_ = keep
	sm := service.NewStreamMonitor(0.001, 0)
	for i := 0; i < 2*kernelHistory; i++ {
		sm.Ingest(service.StreamSample{TUS: int64(i), Scrout: ramp(i)})
	}
	k := 2 * kernelHistory
	m["service.stream_monitor_ingest_ns"] = perOp(ops, func() {
		for i := 0; i < ops; i++ {
			sm.Ingest(service.StreamSample{TUS: int64(k), Scrout: ramp(k)})
			k++
		}
	})
}

// waitforKernel hangs a 64-rank CG world on a communication deadlock
// and times snapshot plus analysis of the paused world.
func waitforKernel(ops int) float64 {
	const size = 64
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, size, noise.Tardis().Latency())
	p := workload.MustLookup("CG", "D", size)
	inj := fault.NewInjector(fault.Plan{Kind: fault.CommunicationDeadlock, Rank: 5, Iteration: 3, PPN: kernelPPN})
	w.Launch(p.Body(inj))
	eng.RunAll() // returns once every rank is blocked and the queue is dry
	defer eng.Shutdown()
	var keep *waitfor.Diagnosis
	ns := perOp(ops, func() {
		for i := 0; i < ops; i++ {
			keep = waitfor.Analyze(waitfor.Capture(w, nil))
		}
	})
	_ = keep
	return ns / 1e3
}

// fixedCostKernel is a 64-rank monitored run with no iterations: what
// is left is Engine.Reset, World.Reset, Launch, monitor start and
// Shutdown — the per-run fixed cost.
func fixedCostKernel(runs int) float64 {
	p := workload.MustLookup("CG", "D", 64)
	p.Iters = 0
	rn := experiment.NewRunner()
	rc := experiment.RunConfig{Params: p, Platform: noise.Tardis(), Seed: 1, Monitor: &core.Config{}}
	rn.Run(rc)
	var ms []float64
	for i := 0; i < runs; i++ {
		rc.Seed = int64(i + 2)
		t0 := time.Now()
		rn.Run(rc)
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms)
}

// logKernels drives the two plain append-only logs with verdict-sized
// records: the sweep log with the fsync batch pssweep uses, and the
// JSONL sink's reader.
func logKernels(m map[string]float64, dir string, n int) error {
	// One real faulty run supplies a record of realistic size.
	p := workload.MustLookup("FT", "D", 64)
	res := experiment.Run(experiment.RunConfig{
		Params: p, Platform: noise.Tardis(), Seed: 7, FaultKind: fault.ComputationHang, Monitor: &core.Config{},
	})
	res.Metrics.Counters, res.Metrics.Gauges = nil, nil
	rec := sweep.Record{Schema: sweep.SchemaVersion, Status: sweep.StatusOK, Attempts: 1, Result: &res}

	logPath := filepath.Join(dir, fmt.Sprintf("kernel_sweep_%d.jsonl", os.Getpid()))
	defer os.Remove(logPath)
	log, err := sweep.CreateLog(logPath, 0) // 0 = the default batch of 16, as pssweep leaves it
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < n; i++ {
		rec.Key, rec.Index = fmt.Sprintf("cell-%d", i), i
		t0 := time.Now()
		if err := log.Write(rec); err != nil {
			log.Close()
			return err
		}
		appends = append(appends, time.Since(t0).Seconds()*1e6)
	}
	if err := log.Close(); err != nil {
		return err
	}
	m["sweep.log_append_us_p50"] = median(appends)
	t0 := time.Now()
	loaded, err := sweep.Load(logPath)
	if err != nil {
		return err
	}
	if len(loaded) != n {
		return fmt.Errorf("sweep.Load returned %d records, wrote %d", len(loaded), n)
	}
	m["sweep.log_load_us_per_rec"] = time.Since(t0).Seconds() * 1e6 / float64(n)

	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	jsonlPath := filepath.Join(dir, fmt.Sprintf("kernel_jsonl_%d.jsonl", os.Getpid()))
	defer os.Remove(jsonlPath)
	sink, err := results.OpenJSONL(jsonlPath, 64)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := sink.Append(results.Record{Payload: payload}); err != nil {
			sink.Close()
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	recs, err := results.ReadJSONL(jsonlPath)
	if err != nil {
		return err
	}
	if len(recs) != n {
		return fmt.Errorf("results.ReadJSONL returned %d records, wrote %d", len(recs), n)
	}
	m["results.jsonl_read_us_per_rec"] = time.Since(t0).Seconds() * 1e6 / float64(n)
	return nil
}
