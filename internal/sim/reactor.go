package sim

import "fmt"

// React creates a reactor named name and schedules its first step at the
// current virtual time. A reactor is a process without a coroutine: each
// time one of its activations is dispatched, step runs to completion on
// the dispatching stack — RunUntil's, or that of a parking process that
// reached the activation first — so a wakeup costs no coroutine switch.
// Before returning, step arms the next wakeup with exactly one of
// ArmSignal, ArmSignalTimeout or ArmSleep; a step that arms nothing retires
// the reactor. A step must not call a parking method (Sleep, Wait*,
// Queue.Get, Semaphore.Acquire): that panics.
//
// Reactors share the activation bookkeeping of coroutine processes (ids,
// sequence numbers, epochs, stale-wakeup discard, Dispatched), so
// rewriting a loop whose body never blocks mid-way as a reactor leaves
// every schedule bit-identical.
func (k *Kernel) React(name string, step func(p *Proc)) *Proc {
	p := k.spawn(name, nil, nil)
	p.step = step
	return p
}

// react dispatches one activation of reactor p: it completes the wakeup
// the way park does for a coroutine (new epoch, and a timed-out signal
// wait leaves the signal's waiter list), then runs the step. A step that
// armed nothing retires the reactor. A panicking step ends it too and
// propagates to whoever dispatched it, with k.running left at the reactor.
//
//strings:hotpath
func (k *Kernel) react(p *Proc) {
	k.reacted++
	p.parked = false
	p.epoch++
	if s := p.timed; s != nil {
		p.timed = nil
		if p.wakeTag != wakeEvent {
			s.drop(p)
		}
	}
	k.running = p
	completed := false
	defer func() {
		if !completed || !p.parked {
			p.done = true
			delete(k.procs, p)
		}
	}()
	p.step(p)
	completed = true
}

// arm marks the reactor as waiting for its next wakeup. It panics unless p
// is a reactor inside its own step that has not armed yet.
func (p *Proc) arm() {
	if p.step == nil || p.k.running != p || p.parked {
		panic(fmt.Sprintf("sim: %s armed a wakeup outside a reactor step, or twice in one step", p.Name()))
	}
	p.parked = true
}

// ArmSignal makes the reactor's next step run when s is next notified. It
// is the reactor form of WaitSignal.
func (p *Proc) ArmSignal(s *Signal) {
	p.arm()
	s.waiters.Push(p)
}

// ArmSignalTimeout makes the reactor's next step run when s is notified or
// d elapses, whichever comes first; if the timeout wins, the reactor leaves
// s's waiter list before the step runs. It is the reactor form of
// WaitSignalTimeout. A negative d counts as 0.
func (p *Proc) ArmSignalTimeout(s *Signal, d Time) {
	p.arm()
	if d < 0 {
		d = 0
	}
	s.waiters.Push(p)
	p.k.schedule(p, p.k.now+d, wakeTimer)
	p.timed = s
}

// ArmSleep makes the reactor's next step run d units of virtual time from
// now. It is the reactor form of Sleep; a negative d counts as 0.
func (p *Proc) ArmSleep(d Time) {
	p.arm()
	if d < 0 {
		d = 0
	}
	p.k.schedule(p, p.k.now+d, wakeTimer)
}
