package core

import (
	"time"

	"parastack/internal/model"
	"parastack/internal/obs"
)

// Phase support implements the paper's §6 "applications with multiple
// phases": an instrumented application calls NotifyPhase when it moves
// between behavioral phases (e.g. setup → solve → IO), and the monitor
// maintains one Scrout model per phase, sampling each phase into its
// own distribution and judging suspicions against the model of the
// phase that is current at observation time.
//
// Un-instrumented applications never call NotifyPhase and run entirely
// in phase 0 — the paper's default single-model behavior.

// NotifyPhase switches the monitor to the model for phase id, creating
// it on first use. Safe to call from application rank bodies (the
// simulation is single-threaded); switching phases resets the
// consecutive-suspicion streak, since observations from different
// regimes must not chain into one verdict.
func (m *Monitor) NotifyPhase(id int) {
	if id == m.curPhase {
		return
	}
	m.curPhase = id
	m.kernel.NewPhase()
	m.rec.Count(CtrPhaseSwitches, 1)
	if m.rec.Enabled() {
		m.rec.Event(time.Duration(m.w.Engine().Now()), EvPhase, obs.Int("phase", int64(id)))
	}
	if m.models == nil {
		m.models = map[int]*model.Model{0: m.model}
	}
	if _, ok := m.models[id]; !ok {
		m.models[id] = model.New(m.cfg.MaxHistory)
	}
}

// Phase returns the current phase id (0 unless NotifyPhase was used).
func (m *Monitor) Phase() int { return m.curPhase }

// PhaseModel returns the model for a given phase (nil if that phase was
// never entered). Phase 0 always exists.
func (m *Monitor) PhaseModel(id int) *model.Model {
	if id == 0 && m.models == nil {
		return m.model
	}
	return m.models[id]
}

// curModel returns the model observations should feed right now.
func (m *Monitor) curModel() *model.Model {
	if m.models == nil {
		return m.model
	}
	return m.models[m.curPhase]
}

// halveModels applies the interval-doubling history cut to every phase
// model (all were sampled at the old interval).
func (m *Monitor) halveModels() {
	if m.models == nil {
		m.model.Halve()
		return
	}
	for _, md := range m.models {
		md.Halve()
	}
}
