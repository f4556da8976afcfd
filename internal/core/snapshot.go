package core

import (
	"time"

	"parastack/internal/model"
	"parastack/internal/mpi"
	"parastack/internal/obs"
	"parastack/internal/topology"
)

// Snapshot is a restartable checkpoint of everything a monitor has
// learned: the adapted sampling interval, the per-phase Scrout samples
// the models were fit from, the monitor sets (with any quarantine-era
// replacements), and the rotation position. It deliberately excludes
// the consecutive-suspicion streak: a restored monitor must re-earn
// statistical significance before verifying a hang, so a crash can
// delay a verdict but never manufacture one.
type Snapshot struct {
	// At is the virtual time the snapshot was taken.
	At time.Duration

	I            time.Duration
	RandomOK     bool
	TotalSamples int
	Epoch        uint64

	// CurPhase and Phases carry the §6 multi-phase state: Phases maps
	// phase id → that phase's retained Scrout samples (oldest first).
	// Single-phase monitors checkpoint as {0: samples}.
	CurPhase int
	Phases   map[int][]float64

	Sets        []topology.MonitorSet
	ActiveSet   int
	SinceSwitch int

	// Quarantined lists the ranks given up on as unreachable.
	Quarantined []int

	ModelReadyAt  time.Duration
	ModelWasReady bool
}

// Snapshot checkpoints the monitor's learned state. All slices and
// maps are deep copies: the live monitor can keep mutating (and then
// crash) without corrupting the checkpoint.
func (m *Monitor) Snapshot() Snapshot {
	s := Snapshot{
		At:            time.Duration(m.w.Engine().Now()),
		I:             m.I,
		RandomOK:      m.kernel.randomOK,
		TotalSamples:  m.totalSamples,
		Epoch:         m.epoch,
		CurPhase:      m.curPhase,
		ActiveSet:     m.activeSet,
		SinceSwitch:   m.sinceSwitch,
		ModelReadyAt:  m.ModelReadyAt,
		ModelWasReady: m.kernel.fitted,
		Phases:        map[int][]float64{},
	}
	if m.models == nil {
		s.Phases[0] = append([]float64(nil), m.model.Samples()...)
	} else {
		for id, md := range m.models {
			s.Phases[id] = append([]float64(nil), md.Samples()...)
		}
	}
	s.Sets = copySets(m.sets)
	s.Quarantined = m.Quarantined()
	return s
}

// RestoreMonitor builds a monitor that resumes from snap — the failover
// path after a monitor crash. The learned model samples, adapted
// interval, monitor sets, rotation position, and quarantine list all
// survive; the suspicion streak does not (see Snapshot). The caller
// Starts the result like a fresh monitor. Passing the same Config
// (and in particular the same Recorder) the crashed monitor ran with
// makes the degradation counters accumulate across the failover.
func RestoreMonitor(w *mpi.World, cluster *topology.Cluster, cfg Config, snap Snapshot) *Monitor {
	m := New(w, cluster, cfg)
	m.I = snap.I
	m.rec.Gauge(GaugeInterval, float64(m.I.Milliseconds()))
	m.kernel.randomOK = snap.RandomOK
	m.totalSamples = snap.TotalSamples
	m.epoch = snap.Epoch
	m.sinceSwitch = snap.SinceSwitch
	m.ModelReadyAt = snap.ModelReadyAt
	m.kernel.fitted = snap.ModelWasReady

	if len(snap.Phases) > 0 {
		m.model.Restore(snap.Phases[0])
		if len(snap.Phases) > 1 || snap.CurPhase != 0 {
			m.models = map[int]*model.Model{0: m.model}
			for id, samples := range snap.Phases {
				if id != 0 {
					m.models[id] = model.New(m.cfg.MaxHistory)
					m.models[id].Restore(samples)
				}
			}
			if _, ok := m.models[snap.CurPhase]; !ok {
				m.models[snap.CurPhase] = model.New(m.cfg.MaxHistory)
			}
			m.curPhase = snap.CurPhase
		}
	}
	if len(snap.Sets) > 0 {
		m.sets = copySets(snap.Sets)
	}
	m.activeSet = snap.ActiveSet
	if m.activeSet >= len(m.sets) {
		m.activeSet = 0
	}
	if len(snap.Quarantined) > 0 {
		if m.quarantined == nil {
			m.quarantined = make(map[int]bool, len(snap.Quarantined))
		}
		for _, r := range snap.Quarantined {
			m.quarantined[r] = true
		}
	}
	m.restoredAt = time.Duration(w.Engine().Now())
	m.rec.Count(CtrFailovers, 1)
	if m.rec.Enabled() {
		m.rec.Event(m.restoredAt, EvFailover,
			obs.Int("samples", int64(m.totalSamples)),
			obs.Int("sets", int64(len(m.sets))),
			obs.Dur("down_us", m.restoredAt-snap.At))
	}
	return m
}

// copySets deep-copies monitor sets.
func copySets(sets []topology.MonitorSet) []topology.MonitorSet {
	out := make([]topology.MonitorSet, len(sets))
	for i, set := range sets {
		out[i] = topology.MonitorSet{Ranks: append([]int(nil), set.Ranks...), Nodes: append([]int(nil), set.Nodes...)}
	}
	return out
}
