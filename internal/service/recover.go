package service

import (
	"fmt"
	"strings"
	"time"

	"parastack/internal/results"
)

// Recover replays an admission journal into a freshly constructed
// service, before it starts taking traffic. Journaled verdicts are
// re-installed verbatim — never re-run — keeping their pre-crash Seqs
// (the service's next Seq advances past them), and re-appended to the
// verdict sink, where the ledger's content dedup makes the replay
// idempotent: a verdict that already reached the sink before the crash
// dedups, one that didn't lands now. Open jobs (admitted, no verdict)
// are re-admitted and re-run; because runs are deterministic, the
// recovered run reaches the same verdict the uninterrupted daemon
// would have. Together that is the exactly-once guarantee: every job
// ever acked yields exactly one verdict, bit-identical to an
// uninterrupted run's.
//
// The reader is typically the same backend the journal writes
// (results.ReadJSONL over the -journal file, or the ledger). Recover
// must be called before any Submit/Feed traffic; calling it on a
// draining service is an error.
func (s *Service) Recover(r results.Reader) (Replay, error) {
	recs, err := r.Records()
	if err != nil {
		return Replay{}, fmt.Errorf("service: recover: reading journal: %w", err)
	}
	// A shared backend (one ledger serving as both journal and verdict
	// sink) also holds "verdict|<id>" sink records; those are excluded
	// by key. Keyless records (the JSONL file sink does not persist
	// keys) pass through — ReplayJournal identifies them by payload.
	jrecs := recs[:0:0]
	for _, rec := range recs {
		if rec.Key == "" || strings.HasPrefix(rec.Key, "journal|") {
			jrecs = append(jrecs, rec)
		}
	}
	rep := ReplayJournal(jrecs)

	// Re-install decided jobs, in Seq order, so Seqs stay increasing
	// along the decision order (the VerdictsPage invariant).
	for _, v := range rep.Decided {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return rep, fmt.Errorf("service: recover: service is draining")
		}
		if s.jobs[v.JobID] != nil || s.decided[v.JobID] != nil {
			s.mu.Unlock()
			continue // already present (double recovery): keep the first
		}
		j := &job{spec: JobSpec{ID: v.JobID}, key: v.Key, done: make(chan struct{}), recovered: true}
		s.jobs[v.JobID] = j
		s.resident++
		s.mu.Unlock()
		s.install(j, v, true)
	}

	// Re-admit open jobs: registered under mu (the Submit admission
	// rule), then put on their shard queue with a blocking send —
	// recovery must not drop a journaled job because the replay burst
	// outran the queue bound (so Recover must not race Drain, which
	// closes the queues). The admit record is already journaled, so this
	// path never re-appends it.
	for _, js := range rep.Open {
		j := &job{spec: js, enq: time.Now(), done: make(chan struct{}), recovered: true}
		if err := j.materialize(); err != nil {
			// The journaled spec no longer validates (schema drift,
			// hand-edited journal, a journal written before the check
			// existed): close it out rather than losing it.
			s.mu.Lock()
			if s.draining || s.jobs[js.ID] != nil || s.decided[js.ID] != nil {
				s.mu.Unlock()
				continue
			}
			s.jobs[js.ID] = j
			s.resident++
			s.mu.Unlock()
			s.decide(j, Verdict{
				JobID:  js.ID,
				Status: VerdictFailed,
				Error:  fmt.Sprintf("service: recovered job spec invalid: %v", err),
			})
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return rep, fmt.Errorf("service: recover: service is draining")
		}
		if s.jobs[js.ID] != nil || s.decided[js.ID] != nil {
			s.mu.Unlock()
			continue
		}
		s.jobs[js.ID] = j
		s.resident++
		s.mu.Unlock()
		s.shards[shardOf(js.ID, len(s.shards))] <- envelope{j: j, enq: j.enq}
		s.armDeadline(j)
		s.count(CtrJobsRecovered, 1)
	}
	return rep, nil
}

// Health is the service's liveness summary, served by GET /healthz.
type Health struct {
	// Status is "ok", "degraded" (an open shard breaker or a lagging
	// journal), or "draining".
	Status string `json:"status"`
	// Resident and Decided count jobs in flight and jobs with verdicts.
	Resident int `json:"resident"`
	Decided  int `json:"decided"`
	// ShardDepths is each shard queue's current fill (bounded by
	// Config.ShardDepth) — the backpressure stage.
	ShardDepths []int `json:"shard_depths"`
	// OpenBreakers lists shards whose circuit breaker is refusing
	// dispatch right now.
	OpenBreakers []int `json:"open_breakers,omitempty"`
	// JournalLag is the journal backend's count of appended-but-unsynced
	// records (0 when durable or no journal).
	JournalLag int `json:"journal_lag"`
}

// Health snapshots the service's health. Status degrades when any
// shard breaker is open or the journal is lagging durability; a
// draining service reports "draining" (the HTTP layer maps that to
// 503, so load balancers stop routing to a daemon on its way out).
func (s *Service) Health() Health {
	now := time.Now()
	h := Health{
		Status:      "ok",
		ShardDepths: make([]int, len(s.shards)),
	}
	for i, q := range s.shards {
		h.ShardDepths[i] = len(q)
	}
	for i, b := range s.breakers {
		if b.isOpen(now) {
			h.OpenBreakers = append(h.OpenBreakers, i)
		}
	}
	if s.journal != nil {
		h.JournalLag = s.journal.lag()
	}
	s.mu.Lock()
	h.Resident = s.resident
	h.Decided = len(s.decided)
	draining := s.draining
	s.mu.Unlock()
	switch {
	case draining:
		h.Status = "draining"
	case len(h.OpenBreakers) > 0 || h.JournalLag > 0:
		h.Status = "degraded"
	}
	return h
}
