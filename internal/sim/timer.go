package sim

// timerEntry is a deferred action: either a callback (fn) or a direct
// message delivery (q, msg) — the closure-free form behind AfterPut.
type timerEntry struct {
	at  Time
	seq uint64
	fn  func()
	q   *Queue[any]
	msg any
}

// lessThan orders timer entries by (time, registration sequence).
func (a timerEntry) lessThan(b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timers is the kernel's deferred-callback facility, backed by one lazily
// started reactor.
type timers struct {
	heap    heap4[timerEntry]
	seq     uint64
	kick    *Signal
	started bool
}

// After schedules fn to run at now+d. The kernel's timer reactor runs it
// inline at that instant, on whichever stack dispatches the reactor, so a
// callback must not block (it may Put into queues, fire events, notify
// signals, start processes — anything non-parking). Callbacks at the same
// instant run in registration order.
func (k *Kernel) After(d Time, fn func()) {
	k.pushTimer(d, timerEntry{fn: fn})
}

// AfterPut schedules msg to be delivered into q at now+d, inline at that
// instant like an After callback. It is After(d, func() { q.Put(msg) }) without
// the closure allocation, for hot paths that defer a message per call (the
// RPC transport's latency model). Deliveries and callbacks at the same
// instant run in registration order.
func (k *Kernel) AfterPut(d Time, q *Queue[any], msg any) {
	k.pushTimer(d, timerEntry{q: q, msg: msg})
}

// pushTimer registers the entry at now+d and kicks the timer reactor.
func (k *Kernel) pushTimer(d Time, e timerEntry) {
	if d < 0 {
		d = 0
	}
	if k.timers == nil {
		k.timers = &timers{kick: k.NewSignal()}
	}
	t := k.timers
	t.seq++
	e.at = k.now + d
	e.seq = t.seq
	t.heap.push(e)
	if !t.started {
		t.started = true
		k.React("sim-timers", k.runTimers)
		return
	}
	t.kick.Notify()
}

// runTimers is the timer reactor's step: it delivers every deferred action
// due now in time order, including any a delivery registers for now, then
// arms a wakeup for the next entry or the next kick.
func (k *Kernel) runTimers(p *Proc) {
	t := k.timers
	for t.heap.len() > 0 && t.heap.peek().at <= p.Now() {
		e := t.heap.pop()
		if e.fn != nil {
			e.fn()
		} else {
			e.q.Put(e.msg)
		}
	}
	if t.heap.len() == 0 {
		p.ArmSignal(t.kick)
		return
	}
	p.ArmSignalTimeout(t.kick, t.heap.peek().at-p.Now())
}
