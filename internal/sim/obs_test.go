package sim

import (
	"testing"
	"time"

	"parastack/internal/obs"
)

// A recorder with a sink sees process lifecycle events; TraceProcs
// additionally enables per-sleep events.
func TestEngineLifecycleEvents(t *testing.T) {
	eng := NewEngine(1)
	sink := obs.NewMemSink()
	eng.SetRecorder(obs.New(sink))
	eng.TraceProcs(true)

	eng.Spawn("worker", 0, func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
	})
	eng.SpawnNow("idler", func(p *Proc) {
		p.Sleep(time.Millisecond)
	})
	eng.RunAll()

	if n := sink.CountKind(EvProcSpawn); n != 2 {
		t.Errorf("proc_spawn events = %d, want 2", n)
	}
	if n := sink.CountKind(EvProcStop); n != 2 {
		t.Errorf("proc_stop events = %d, want 2", n)
	}
	if n := sink.CountKind(EvProcSleep); n != 3 {
		t.Errorf("proc_sleep events = %d, want 3", n)
	}

	spawn := sink.Kind(EvProcSpawn)[0]
	if f, ok := spawn.Field("name"); !ok || f.StrValue() != "worker" {
		t.Errorf("first spawn name field = %+v", f)
	}
	if f, ok := spawn.Field("proc"); !ok || f.IntValue() != 0 {
		t.Errorf("first spawn proc field = %+v", f)
	}

	sleeps := sink.Kind(EvProcSleep)
	if f, _ := sleeps[0].Field("dur_us"); f.IntValue() != 10_000 {
		t.Errorf("first sleep dur_us = %d, want 10000", f.IntValue())
	}

	rec := eng.Recorder()
	if got := rec.Counter(CtrSpawns); got != 2 {
		t.Errorf("%s = %d, want 2", CtrSpawns, got)
	}
	if got := rec.Counter(CtrProcExits); got != 2 {
		t.Errorf("%s = %d, want 2", CtrProcExits, got)
	}
	if got := rec.Counter(CtrSleeps); got != 3 {
		t.Errorf("%s = %d, want 3", CtrSleeps, got)
	}
	if got, fired := rec.Counter(CtrEvents), int64(eng.EventsFired()); got != fired {
		t.Errorf("%s = %d, want EventsFired %d", CtrEvents, got, fired)
	}
}

// Per-sleep events stay off without TraceProcs; counters still count.
func TestTraceProcsGate(t *testing.T) {
	eng := NewEngine(1)
	sink := obs.NewMemSink()
	eng.SetRecorder(obs.New(sink))

	eng.SpawnNow("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	eng.RunAll()

	if n := sink.CountKind(EvProcSleep); n != 0 {
		t.Errorf("proc_sleep events without TraceProcs = %d, want 0", n)
	}
	if got := eng.Recorder().Counter(CtrSleeps); got != 1 {
		t.Errorf("%s = %d, want 1", CtrSleeps, got)
	}
}

// The queue-depth gauge tracks MaxQueueDepth, and depth milestone
// events are emitted sparsely (on ~2x growth), not per event. The depth
// is the one queue's: closures stamped by several shards add up.
func TestQueueDepthObservability(t *testing.T) {
	eng := NewEngine(1)
	sink := obs.NewMemSink()
	eng.SetRecorder(obs.New(sink))

	const n = 100
	for i := 0; i < n; i++ {
		eng.At(time.Duration(i)*time.Millisecond, func() {})
	}
	eng.RunAll()

	if eng.MaxQueueDepth() != n {
		t.Fatalf("MaxQueueDepth = %d, want %d", eng.MaxQueueDepth(), n)
	}
	snap := eng.Recorder().Snapshot()
	if got := snap.Gauge(GaugeQueueDepthMax); got != n {
		t.Errorf("%s = %g, want %d", GaugeQueueDepthMax, got, n)
	}
	depth := sink.CountKind(EvQueueDepth)
	if depth == 0 {
		t.Error("no queue_depth events emitted")
	}
	if depth > 10 { // 2x milestones: ~log2(100) ≈ 7 events
		t.Errorf("queue_depth events = %d, want sparse (≤10)", depth)
	}

	// Three processes, each on its own shard, schedule m closures apiece
	// before any fires.
	eng = NewEngine(1)
	const m = 10
	for sh := 1; sh <= 3; sh++ {
		eng.SpawnOn(sh, "scheduler", 0, func(p *Proc) {
			for i := 0; i < m; i++ {
				eng.At(time.Millisecond+time.Duration(i), func() {})
			}
		})
	}
	eng.RunAll()
	if got := eng.MaxQueueDepth(); got != 3*m {
		t.Errorf("MaxQueueDepth with closures on three shards = %d, want their total %d", got, 3*m)
	}
}

// A detached (default) recorder must not change behavior, and
// SetRecorder(nil) restores it.
func TestSetRecorderNil(t *testing.T) {
	eng := NewEngine(1)
	eng.SetRecorder(nil)
	if eng.Recorder() != obs.Disabled {
		t.Error("SetRecorder(nil) did not restore obs.Disabled")
	}
	eng.SpawnNow("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	if got := eng.RunAll(); got != time.Millisecond {
		t.Errorf("RunAll = %v", got)
	}
}
