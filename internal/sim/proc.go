package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process cooperatively scheduled by a Kernel: either a
// coroutine (Kernel.Go) or a reactor (Kernel.React). All Proc methods must be
// called from the process's own function. A coroutine's parking methods are
// the points at which it can block and virtual time can advance; a reactor
// never blocks and arms its next wakeup with the Arm methods instead.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	nameFn func() string // lazy name, formatted on first use (GoNamed)

	// fn is the process body, held until the first dispatch creates the
	// coroutine (start). resume switches into the coroutine (the driver
	// side of iter.Pull), yield switches back out (called by park), and
	// stop unwinds a suspended coroutine (Kernel.Reap).
	fn     func(p *Proc)
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// step is a reactor's body (nil for a coroutine): each dispatched
	// activation runs it to completion on the dispatcher's stack (see
	// Kernel.react). timed is the signal of a pending ArmSignalTimeout,
	// dropped if the timeout wins.
	step  func(p *Proc)
	timed *Signal

	epoch   uint64 // incremented on every wakeup; see activation.epoch
	pending int    // number of queued activations
	parked  bool
	done    bool
	wakeTag int32
}

// Name returns the process name given to Kernel.Go, formatting it on first
// use when the process was created with GoNamed.
func (p *Proc) Name() string {
	if p.name == "" && p.nameFn != nil {
		p.name = p.nameFn()
		p.nameFn = nil
	}
	return p.name
}

// ID returns the process's unique small-integer id (creation order).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel running this process.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// reaped is the panic value park raises when Kernel.Reap stops a suspended
// process: it unwinds the process's stack, running its deferred calls, and
// is recovered by the coroutine body in start. Simulation code must not
// recover it.
type reaped struct{}

// start creates the process's coroutine. The kernel calls it on the first
// dispatch rather than at Go, so a process that never runs never costs a
// goroutine. The body runs fn and then retires the process; a reap unwinds
// it through park's panic instead, which the deferred recover absorbs while
// letting every other panic propagate to the caller of resume or stop.
func (p *Proc) start() {
	fn := p.fn
	p.fn = nil
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) { //lint:allow hotalloc -- one coroutine per process, created on its first dispatch instead of at Go; never more than one per Go call
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(reaped); !ok {
					// The panic ends the process, unless a reactor's step
					// raised it while running inline in this process's park:
					// then react has already ended the reactor. A reap may
					// follow either way.
					if p.k.running == p {
						p.done = true
					}
					panic(r)
				}
			}
		}()
		p.yield = yield
		p.epoch++
		fn(p)
		p.done = true
		delete(p.k.procs, p)
	})
}

// park cedes control and blocks until this process's next wakeup. Before
// switching away it dispatches the activations it can run without a switch:
// reactor steps run right here (Kernel.react), and when the process is
// itself the next activation — a Yield, Sleep(0) or a wakeup with only
// reactors in between — it consumes the activation inline and continues
// without a coroutine switch. Otherwise it yields back to the RunUntil
// driver, which resumes the next process. Stale activations encountered on
// the way are discarded exactly as the driver would. When Kernel.Reap
// stops the process instead of resuming it, park panics with reaped to
// unwind it.
func (p *Proc) park() {
	p.parked = true
	k := p.k
	for !k.stopped {
		a, ok := k.frontDue()
		if !ok {
			break
		}
		q := a.proc
		if q.done || a.epoch != q.epoch {
			k.nowQ.Pop()
			q.pending-- // stale wakeup from an earlier park
			continue
		}
		if q != p && q.step == nil {
			break // genuine handoff: yield to the driver
		}
		k.nowQ.Pop()
		q.pending--
		k.now = a.at
		q.wakeTag = a.tag
		k.dispatched++
		if q != p {
			k.react(q)
			continue
		}
		// Fast path: no coroutine switch.
		k.inlined++
		k.running = p
		p.parked = false
		p.epoch++
		return
	}
	if !p.yield(struct{}{}) {
		panic(reaped{}) // Kernel.Reap is unwinding this process
	}
	p.parked = false
	p.epoch++
}

// mayPark panics when p is a reactor: a step arms its next wakeup and
// returns, and blocking in it would suspend whatever stack it runs on. The
// check comes before any side effect, so the schedule stays intact.
func (p *Proc) mayPark() {
	if p.step != nil {
		panic(fmt.Sprintf("sim: reactor %s parked", p.Name()))
	}
}

// Sleep blocks the process for d units of virtual time. Nonpositive
// durations yield the processor for the current instant (other activations
// at the same time run first).
func (p *Proc) Sleep(d Time) {
	p.mayPark()
	if d < 0 {
		d = 0
	}
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.park()
}

// Yield reschedules the process at the current instant, letting every other
// activation pending at this time run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait blocks until e fires. If e has already fired it returns immediately.
func (p *Proc) Wait(e *Event) {
	p.mayPark()
	if e.fired {
		return
	}
	e.waiters.Push(p)
	p.park()
}

// WaitTimeout blocks until e fires or d elapses, whichever comes first. It
// reports whether the event fired (true) or the timeout won (false). If e has
// already fired it returns true immediately. A negative d counts as 0.
func (p *Proc) WaitTimeout(e *Event, d Time) bool {
	p.mayPark()
	if e.fired {
		return true
	}
	if d < 0 {
		d = 0
	}
	e.waiters.Push(p)
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.park()
	return p.wakeTag == wakeEvent
}

// WaitSignal blocks until s is next notified.
func (p *Proc) WaitSignal(s *Signal) {
	p.mayPark()
	s.waiters.Push(p)
	p.park()
}

// WaitSignalTimeout blocks until s is notified or d elapses; it reports
// whether the signal arrived. A negative d counts as 0.
func (p *Proc) WaitSignalTimeout(s *Signal, d Time) bool {
	p.mayPark()
	if d < 0 {
		d = 0
	}
	s.waiters.Push(p)
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.park()
	if p.wakeTag != wakeEvent {
		s.drop(p)
		return false
	}
	return true
}

// Tracef emits a trace line through the kernel's tracer, if one is installed.
func (p *Proc) Tracef(format string, args ...interface{}) {
	if p.k.tracer != nil {
		p.k.tracer(p.k.now, p.Name(), fmt.Sprintf(format, args...))
	}
}
