// Rank-count scaling suite behind the BENCH_scale.json artifact.
//
// Each benchmark runs one clean CG-style campaign step — halo exchanges
// plus synchronization-like Allreduces with the ParaStack monitor
// attached — at a fixed per-rank workload while the world size sweeps
// 256 → 131072 ranks. Per-rank work is constant, so events_per_sec
// across the sweep is the scaling story: flat means the simulator's
// per-event cost is independent of N (batched collective wakeups keep
// the event queue at O(live timers), not O(N) per collective), while a
// collapse at large N would point at a super-linear hot path.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"parastack/internal/core"
	"parastack/internal/experiment"
	"parastack/internal/noise"
	"parastack/internal/workload"
)

// ScaleRankCounts is the world-size sweep of the scaling suite.
var ScaleRankCounts = []int{256, 1024, 4096, 16384, 65536, 131072}

// scaleParams builds the fixed per-rank workload at world size ranks:
// a short CG-style run (30 iterations of 20ms compute + 8KB halos)
// whose simulated-event count grows linearly with ranks.
func scaleParams(ranks int) workload.Params {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: "scale", Procs: ranks}
	p.Iters = 30
	p.Compute = 20 * time.Millisecond
	p.HaloBytes = 8 << 10
	return p
}

// ScaleName is the stable benchmark identifier for a rank count.
func ScaleName(ranks int) string {
	return fmt.Sprintf("scale/clean_run_%d_ranks", ranks)
}

// measureScale measures one rank count of the sweep: clean monitored
// runs through the same Runner reuse path campaigns use, averaged by
// measureRun over at least three runs.
func measureScale(ranks int) Result {
	p := scaleParams(ranks)
	rn := experiment.NewRunner()
	res := measureRun(ScaleName(ranks), func(i int) uint64 {
		r := rn.Run(experiment.RunConfig{
			Params:   p,
			Platform: noise.Tardis(),
			PPN:      8,
			Seed:     int64(i + 1),
			Monitor:  &core.Config{},
		})
		return r.Events
	})
	res.Ranks = ranks
	return res
}

// RunScaleSuite executes the rank-count sweep and assembles the report
// written to BENCH_scale.json.
func RunScaleSuite() Report {
	rep := Report{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, n := range ScaleRankCounts {
		rep.Benchmarks = append(rep.Benchmarks, measureScale(n))
	}
	return rep
}

// WriteScaleJSON runs the scaling suite and writes the JSON artifact.
func WriteScaleJSON(w io.Writer) error {
	rep := RunScaleSuite()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
