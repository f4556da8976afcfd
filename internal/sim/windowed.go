package sim

// runWindowed is the conservative parallel-DES executor. It partitions
// execution into horizon windows: every window picks the globally
// earliest pending event time tmin and a horizon
//
//	H = min(tmin + lookahead, next system event, until+1)
//
// then runs every shard holding events before H independently up to H.
// The lookahead bound (SetLookahead) guarantees no shard can affect
// another before tmin + lookahead, and the system-shard clamp
// guarantees system events — which read cross-shard world state — only
// execute when the whole simulation has reached their instant, exactly
// as in the serial order. Together these make the committed event
// sequence (projected per shard) identical to the serial engine's;
// cross-shard ordering within a window is immaterial because, by
// construction, those events cannot interact.
//
// Determinism does not depend on the worker count: events land in
// queues in possibly different orders, but the (time, source shard,
// source seq) total order makes every heap pop mode- and
// schedule-independent.
func (e *Engine) runWindowed(until Time) Time {
	sys := e.shards[0]
	for len(e.heads) > 0 && !e.stopped {
		tmin := e.heads[0].when
		if until > 0 && tmin > until {
			e.now = until
			return e.now
		}
		if e.heads[0].s == sys {
			// A system event holds the global minimum: run exactly it,
			// serially, with the whole world quiesced at or beyond its
			// time. Monitors, detectors, and test callbacks therefore
			// observe the same world state as in a serial run.
			e.runSerial(1)
			continue
		}
		sysT := maxTime
		if sys.pos >= 0 {
			sysT = sys.queue[0].when
		}
		h := tmin + e.lookahead
		if sysT < h {
			h = sysT
			e.horizonStalls++
		}
		if until > 0 && until+1 < h {
			h = until + 1
		}
		if h <= tmin {
			// Degenerate window (a system event ties the minimum but a
			// rank event orders first): fall back to one serial step.
			e.runSerial(1)
			continue
		}
		e.runWindow(h)
		e.now = h
		if until > 0 && e.now > until {
			e.now = until
		}
	}
	return e.now
}

// runWindow executes one window with horizon h: gathers the shards
// with work before h, runs each to h (on the coordinator alone, or on
// e.workers goroutines), then merges cross-shard inboxes and restores
// the head heap.
func (e *Engine) runWindow(h Time) {
	// Shards of one window cannot interact (every cross-shard effect
	// lands at or beyond h), and event stamps are globally unique, so
	// the order shards execute in is immaterial — the heads-pop order
	// is used as-is.
	e.active = e.active[:0]
	for len(e.heads) > 0 && e.heads[0].when < h {
		s := e.headsPopMin()
		s.active = true
		e.active = append(e.active, s)
	}

	e.inWindow = true
	e.curH = h
	for _, s := range e.active {
		s.horizon = h
	}
	e.winNext.Store(0)
	n := 1
	if e.workers > 1 {
		n = e.workers
		if n > len(e.active) {
			n = len(e.active)
		}
	}
	// winLeft counts release obligations: one per active shard plus one
	// lease per *spawned* starter goroutine. The lease keeps the window
	// open until the starter's last read of e.active, even if every
	// shard it might have claimed was finished by someone else first.
	e.winLeft.Store(int64(len(e.active) + n - 1))
	for w := 1; w < n; w++ {
		go func() {
			e.runChain(nil)
			e.winRelease()
		}()
	}
	e.runChain(nil)
	// Exactly one shardDone call observes the count reach zero and
	// deposits the window token; the channel is buffered so that
	// finisher never blocks, even when it is this goroutine.
	<-e.winDone
	e.inWindow = false
	e.curH = 0

	// Merge inbox deliveries (multi-worker windows route cross-shard
	// events through inboxes rather than foreign heaps). Every entry was
	// lookahead-checked at posting time, so it lands at or beyond h.
	// Wake events deferred their suspended→sleeping marking to this
	// barrier (the target's state word was in flight mid-window; see
	// Proc.WakePeerAt) — all shards have quiesced here, so the waiter is
	// parked and its state is safe to flip.
	for _, s := range e.dirty {
		s.indirty = false
		s.inboxMu.Lock()
		for i, ev := range s.inbox {
			if ev.proc != nil && ev.proc.state == ProcSuspended {
				ev.proc.state = ProcSleeping
				ev.proc.wake = ev
			}
			s.queue.push(ev)
			s.notePush()
			s.inbox[i] = nil
		}
		s.inbox = s.inbox[:0]
		s.inboxMu.Unlock()
		if !s.active && s.pos >= 0 {
			e.headsFix(s)
		} else if !s.active && len(s.queue) > 0 {
			e.headsInsert(s)
		}
	}
	e.dirty = e.dirty[:0]

	for _, s := range e.active {
		s.committed = h
		s.active = false
		if len(s.queue) > 0 {
			e.headsInsert(s)
		}
	}
	e.windows++
	e.windowShards += uint64(len(e.active))
	e.active = e.active[:0]
}

// runChain drives active shards' event loops until a handoff or the
// cursor is exhausted. One chain starts per worker (the coordinator
// itself runs one); every handoff moves the chain onto the dispatched
// process's goroutine, and every process that exhausts a shard's
// window picks up the next unstarted shard and keeps going. The
// coordinator therefore blocks once per *window*, not once per shard
// activation — within a window, control flows proc-to-proc across
// shard boundaries without ever returning to a driver.
//
// carry is the shard the calling goroutine just exhausted (nil for
// chain starters). It is retired only *after* the next cursor claim:
// the moment the last shard retires, the coordinator may reuse the
// window's state for the next window, so every read of e.active must
// precede the reader's own final retirement — which the claim-then-
// retire order guarantees through the winLeft/winDone release chain.
func (e *Engine) runChain(carry *shard) {
	for {
		i := int(e.winNext.Add(1)) - 1
		var s *shard
		if i < len(e.active) {
			s = e.active[i]
		}
		if carry != nil {
			e.shardDone(carry)
		}
		if s == nil {
			return
		}
		if s.runLoop(nil) == loopHanded {
			return
		}
		carry = s
	}
}

// shardDone marks one active shard's window complete; the caller must
// be the goroutine that owned its loop.
func (e *Engine) shardDone(s *shard) {
	s.horizon = 0
	e.winRelease()
}

// winRelease drops one window obligation (a shard completion or a
// starter lease); whoever drops the last one deposits the window
// token for the coordinator.
func (e *Engine) winRelease() {
	if e.winLeft.Add(-1) == 0 {
		e.winDone <- struct{}{}
	}
}
