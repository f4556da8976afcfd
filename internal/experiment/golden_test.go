package experiment

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"parastack/internal/core"
	"parastack/internal/fault"
	"parastack/internal/noise"
	"parastack/internal/workload"
)

// The goldens below pin the event order of rank-grouped worlds — more
// ranks than the MPI world has shards, so consecutive ranks share a
// shard and same-instant events are tie-broken by shard stamps. They
// were recorded while a second, windowed executor still existed and
// agreed with the serial one bit for bit, so a change to any of them
// moves the simulation itself, not just one way of running it.

// orderGolden is the part of a RunResult that the event order decides.
type orderGolden struct {
	Events      uint64
	FinishedAt  time.Duration
	Completed   bool
	Injected    bool
	InjectedAt  time.Duration
	PlannedFail []int
	Doublings   int
	Report      string // JSON; "null" when no detector reported
	Cause       string
	Diagnosis   string // JSON; "null" when no diagnosis ran
	Sleeps      int64
	Samples     int64
	Traces      int64
}

func goldenOf(t *testing.T, res RunResult) orderGolden {
	t.Helper()
	report, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := json.Marshal(res.Diagnosis)
	if err != nil {
		t.Fatal(err)
	}
	return orderGolden{
		Events:      res.Events,
		FinishedAt:  res.FinishedAt,
		Completed:   res.Completed,
		Injected:    res.Injected,
		InjectedAt:  res.InjectedAt,
		PlannedFail: res.PlannedFail,
		Doublings:   res.Doublings,
		Report:      string(report),
		Cause:       res.Cause,
		Diagnosis:   string(diag),
		Sleeps:      res.Metrics.Counters["engine.sleeps"],
		Samples:     res.Metrics.Counters["monitor.samples"],
		Traces:      res.Metrics.Counters["monitor.traces"],
	}
}

// cgWorld is a CG skeleton of the given size, iterations and compute
// step with 8 KB halos.
func cgWorld(class string, ranks, iters int, compute time.Duration) workload.Params {
	p := workload.MustLookup("CG", "D", 256)
	p.Spec = workload.Spec{Name: "CG", Class: class, Procs: ranks}
	p.Iters = iters
	p.Compute = compute
	p.HaloBytes = 8 << 10
	return p
}

// TestRankGroupedOrderGolden: a 512-rank world (two ranks per shard),
// seed 1 — clean and with a computation hang over 10 short iterations
// (too short for the detector to convict), and with a computation hang
// over 100 long ones, convicted and diagnosed. The hang case's counts
// include the monitor's own: its sampling interval stops at the 3.2 s
// ceiling after three doublings, so it samples more often than it did
// when doubling had no bound.
func TestRankGroupedOrderGolden(t *testing.T) {
	const verdict = `{"cause":"straggler-chain","size":512,"observed":512,"culprits":[362],` +
		`"chain":[{"from":0,"to":362,"why":"MPI_Allreduce"}],` +
		`"detail":"1 rank(s) stuck outside MPI with others waiting on them"}`
	short := cgWorld("scale", 512, 10, 20*time.Millisecond)
	long := cgWorld("scale", 512, 100, 400*time.Millisecond)
	cases := []struct {
		name string
		p    workload.Params
		kind fault.Kind
		want orderGolden
	}{
		{"clean", short, fault.None, orderGolden{
			Events: 62961, FinishedAt: 231125291, Completed: true,
			Report: "null", Diagnosis: "null", Sleeps: 25621,
		}},
		{"hang", short, fault.ComputationHang, orderGolden{
			Events: 61632, Injected: true, InjectedAt: 221893305,
			PlannedFail: []int{362}, Doublings: 3, Report: "null", Diagnosis: "null",
			Sleeps: 25326, Samples: 225, Traces: 2250,
		}},
		{"detected", long, fault.ComputationHang, orderGolden{
			Events: 603209, Injected: true, InjectedAt: 42755007195, PlannedFail: []int{362},
			Report: `{"DetectedAt":48056942337,"Type":0,"FaultyRanks":[362],"Suspicions":4,` +
				`"Q":0.12207207207207207,"Threshold":0,"Cause":` + verdict + `}`,
			Cause: "straggler-chain", Diagnosis: verdict,
			Sleeps: 248108, Samples: 111, Traces: 2648,
		}},
	}
	for _, c := range cases {
		res := Run(RunConfig{
			Params:    c.p,
			Platform:  noise.Tardis(),
			PPN:       8,
			Seed:      1,
			FaultKind: c.kind,
			Monitor:   &core.Config{},
		})
		if got := goldenOf(t, res); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: order moved\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestWideWorldOrderGolden: the 4096-rank world of the benchmark's
// wide_* workloads (30 iterations of 400 ms compute), seed 1.
func TestWideWorldOrderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4096-rank world; skipped in -short")
	}
	res := Run(RunConfig{
		Params:   cgWorld("wide", 4096, 30, 400*time.Millisecond),
		Platform: noise.Tardis(),
		PPN:      8,
		Seed:     1,
		Monitor:  &core.Config{},
	})
	if res.Events != 1499398 || res.FinishedAt != 13390897443 || !res.Completed || res.Report != nil {
		t.Errorf("order moved: events %d, finished %v, completed %v, report %+v; want 1499398, 13.390897443s, true, nil",
			res.Events, res.FinishedAt, res.Completed, res.Report)
	}
}
