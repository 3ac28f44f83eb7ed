package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// maxTime is the largest representable virtual instant; Run executes with it
// as the limit.
const maxTime = Time(1<<62 - 1)

// DefaultFFHorizon is the quiescence horizon used by a fresh kernel: a clock
// jump of at least this size counts as an analytic fast-forward (see
// FastForwards). The horizon only affects the fast-forward accounting, never
// the schedule itself, so changing it cannot change simulation results.
const DefaultFFHorizon = Millisecond

// Kernel is a deterministic discrete-event executor. Processes created with
// Go run as coroutines (iter.Pull); processes created with React are
// reactors, whose steps run to completion without a coroutine of their own.
// The kernel enforces that exactly one process executes at any instant, and
// every blocking operation hands control back to the kernel, which advances
// the virtual clock to the next scheduled activation.
//
// Scheduling state is split in two for speed. Activations at a future instant
// live in a 4-ary min-heap ordered by (time, sequence). Activations at the
// *current* instant go to a plain FIFO ring instead: sequence numbers are
// monotone, so arrival order is (time, sequence) order, and the common case —
// a process yielding, a Put waking a Get, an event firing at now — costs O(1)
// with no heap traffic. When the ring drains, the whole batch of heap entries
// sharing the next timestamp is drained into the ring at once (same-instant
// batch dispatch): schedule routes new same-instant work to the ring, so the
// heap can never again hold entries at the drained instant and the merged
// order stays exactly the old single-heap (time, sequence) order, which keeps
// runs bit-identical.
//
// Control transfer uses coroutine switches rather than goroutine channel
// handoffs: the RunUntil driver resumes the next activation's process with an
// iter.Pull next(), and a parking process yields back. A coroutine switch
// stays out of the goroutine scheduler entirely, which makes a handoff
// several times cheaper than a channel round trip. Two kinds of activation
// need no switch at all: a reactor's step runs on whichever stack dispatches
// it (RunUntil's, or a parking process's), and a process that is its own
// next activation (Yield, Sleep(0), a wakeup with only reactor steps in
// between) consumes the activation inline and continues. Handoffs counts
// each kind.
//
// A process's coroutine is created by its first dispatch, not by Go, and
// Reap (which Reset calls first) unwinds every process still suspended when
// a simulation is over, so a finished kernel holds no goroutine and keeps
// nothing of its model reachable.
//
// A Kernel is not safe for use from goroutines other than its own processes
// and the single goroutine driving Run/RunUntil.
type Kernel struct {
	now        Time
	seq        uint64
	limit      Time
	future     heap4[activation]
	nowQ       Ring[activation]
	dispatched uint64
	resumes    uint64 // dispatches that resumed a coroutine (RunUntil)
	inlined    uint64 // dispatches a parking process consumed itself (park)
	reacted    uint64 // reactor steps run (react)
	running    *Proc
	procs      map[*Proc]struct{}
	nextID     int
	rng        *rand.Rand
	tracer     func(t Time, proc, msg string)
	stopped    bool
	timers     *timers

	// Fast-forward accounting: jumps of >= ffHorizon over known-quiet
	// virtual time (see FastForwards).
	ffHorizon Time
	ffJumps   uint64
	ffSkipped Time

	// evFree recycles pooled events (NewPooledEvent); kept across Reset so a
	// reused kernel skips the ramp-up allocations, like the heap and ring
	// backing arrays.
	evFree []*Event
}

// activation is a pending wakeup of a process at a virtual instant. The epoch
// ties the activation to one park of the process: once the process has been
// woken (by any activation), activations from the same park become stale and
// are discarded when popped.
type activation struct {
	at    Time
	seq   uint64
	proc  *Proc
	epoch uint64
	tag   int32
}

// lessThan orders activations by (time, schedule sequence).
func (a activation) lessThan(b activation) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewKernel returns a kernel whose clock starts at zero. The seed fixes the
// kernel's random stream (exposed via Rand) so that runs are reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		limit:     maxTime,
		procs:     make(map[*Proc]struct{}),
		rng:       rand.New(rand.NewSource(seed)),
		ffHorizon: DefaultFFHorizon,
	}
}

// Reset returns the kernel to the state NewKernel(seed) would produce while
// keeping the event heap's, now-queue's and event pool's backing arrays, so a
// worker that runs many simulations back to back stops paying the ramp-up
// allocations of each run. A reset kernel is indistinguishable from a fresh
// one: the clock, sequence counter, dispatch count, random stream and process
// table all start over, and the (time, sequence) dispatch order of the next
// run is bit-exact with what a new kernel would produce (regression-tested).
//
// Reset must only be called between runs — after Run/RunUntil has returned
// and before any new process is created. It first reaps (see Reap), so
// processes left parked by a previous run (for example by a RunUntil
// horizon) are unwound and their goroutines released before the clock
// rewinds. Any installed tracer is removed, and the timer facility restarts
// lazily on the next After call.
func (k *Kernel) Reset(seed int64) {
	if k.active() {
		panic("sim: Reset during an active run")
	}
	k.Reap()
	k.now = 0
	k.seq = 0
	k.limit = maxTime
	k.dispatched = 0
	k.resumes, k.inlined, k.reacted = 0, 0, 0
	k.nextID = 0
	k.rng = rand.New(rand.NewSource(seed))
	k.tracer = nil
	k.ffHorizon = DefaultFFHorizon
	k.ffJumps = 0
	k.ffSkipped = 0
}

// Reap ends every live process between runs and drops the kernel's
// references to them, so a finished simulation releases its goroutines and
// everything they kept reachable. Processes are unwound in id order: each
// suspended coroutine is stopped, which makes its pending park panic with an
// internal sentinel that runs the process's deferred calls and is recovered
// at the top of the process. Those deferred calls may fire events or
// release resources; whatever they schedule is discarded, and one that
// blocks is unwound in turn instead of resuming the simulation. A reactor,
// or a process that was never dispatched, has no coroutine and is simply
// dropped. Any other panic raised while unwinding propagates to the caller.
//
// Afterwards the process table, the event heap, the now-queue and the timer
// facility are empty and NextEventTime reports the kernel quiescent; the
// clock, the dispatch, handoff and fast-forward counters and the random
// stream are left as they were, so a finished run stays readable. Reap must
// not be called from inside a process, but may follow a run that a
// process's panic cut short.
func (k *Kernel) Reap() {
	if k.active() {
		panic("sim: Reap during an active run")
	}
	live := make([]*Proc, 0, len(k.procs))
	for p := range k.procs {
		live = append(live, p)
	}
	slices.SortFunc(live, func(a, b *Proc) int { return cmp.Compare(a.id, b.id) })
	// stopped keeps a deferred call's park off the same-instant fast path,
	// so it yields to the stop and unwinds rather than running on.
	k.stopped = true
	for _, p := range live {
		if p.stop != nil && !p.done {
			k.running = p
			p.stop()
		}
		p.done = true
	}
	k.running = nil
	k.stopped = false
	clear(k.procs)
	k.future.reset()
	k.nowQ.Reset()
	// Dropping the timer state (rather than clearing it) detaches the timer
	// reactor dropped above; the next After lazily starts a new one.
	k.timers = nil
}

// active reports whether a process is executing. A process whose panic
// unwound out of RunUntil has ended, so it no longer counts.
func (k *Kernel) active() bool { return k.running != nil && !k.running.done }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Dispatched returns the total number of activations dispatched over the
// kernel's lifetime (stale wakeups excluded). It is the event count behind
// events/sec throughput reporting.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Handoffs splits Dispatched by how each activation reached its process:
// resumes switched into a coroutine from RunUntil, inline activations were
// consumed by a parking process that was itself next (no switch), and
// reactor activations ran a reactor's step on the dispatching stack (no
// switch). resumes + inline + reactor == Dispatched(); Reset zeroes all
// three.
func (k *Kernel) Handoffs() (resumes, inline, reactor uint64) {
	return k.resumes, k.inlined, k.reacted
}

// SetTracer installs a trace callback invoked by Proc.Tracef. A nil tracer
// disables tracing.
func (k *Kernel) SetTracer(fn func(t Time, proc, msg string)) { k.tracer = fn }

// Stop makes Run return after the currently executing process parks. Pending
// activations are retained (a subsequent Run call would resume them).
func (k *Kernel) Stop() { k.stopped = true }

// SetFFHorizon sets the quiescence horizon for fast-forward accounting: a
// clock jump of at least d over known-quiet virtual time counts as one
// fast-forward. Nonpositive horizons count every nonzero jump. The horizon is
// observability only — it cannot change scheduling order or results.
func (k *Kernel) SetFFHorizon(d Time) {
	if d <= 0 {
		d = 1
	}
	k.ffHorizon = d
}

// FastForwards reports the analytic fast-forward counters: how many times the
// clock jumped at least the quiescence horizon in one step, and the total
// virtual time skipped by those jumps. A discrete-event kernel never grinds
// through idle virtual time — when no process is runnable before the next
// scheduled activation (and every device model is parked on its own wakeup),
// the interval in between is provably quiet and the clock moves wholesale.
// These counters make that behaviour measurable so idle-heavy scenarios can
// report a skip ratio and be validated against internal/analytic predictions.
func (k *Kernel) FastForwards() (jumps uint64, skipped Time) {
	return k.ffJumps, k.ffSkipped
}

// Go creates a new process named name executing fn and schedules its first
// activation at the current virtual time. It may be called before Run or from
// inside a running process.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, nil, fn)
}

// GoNamed is Go with a lazily formatted name: nameFn runs at most once, the
// first time the name is actually needed (a Tracef line, Blocked, a
// diagnostic dump). Hot paths that spawn a process per request avoid the
// formatting allocations entirely when nothing observes the name.
func (k *Kernel) GoNamed(nameFn func() string, fn func(p *Proc)) *Proc {
	return k.spawn("", nameFn, fn)
}

// spawn registers a process and schedules its first activation. The
// coroutine is created lazily by the first dispatch (Proc.start), so
// building a model that never runs starts no goroutine.
func (k *Kernel) spawn(name string, nameFn func() string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		nameFn: nameFn,
		fn:     fn,
	}
	k.procs[p] = struct{}{}
	k.schedule(p, k.now, wakeStart)
	return p
}

// Wake tags distinguishing what woke a parked process.
const (
	wakeStart = iota
	wakeTimer
	wakeEvent
)

// schedule enqueues a wakeup of p at time at (which must be >= now).
//
//strings:hotpath
func (k *Kernel) schedule(p *Proc, at Time, tag int32) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past: %v < %v", p.Name(), at, k.now))
	}
	k.seq++
	a := activation{at: at, seq: k.seq, proc: p, epoch: p.epoch, tag: tag}
	if at == k.now {
		k.nowQ.Push(a)
	} else {
		k.future.push(a)
	}
	p.pending++
}

// frontDue returns the next activation in (time, sequence) order without
// consuming it, or reports false if none is due at or before the run limit.
// When the now-ring is empty it drains the entire batch of heap entries
// sharing the next timestamp into the ring in one pass (same-instant batch
// dispatch): every same-instant heap entry predates every ring entry, and
// schedule routes new work at the drained instant straight to the ring, so
// consuming ring-first preserves the exact single-heap order.
func (k *Kernel) frontDue() (activation, bool) {
	if k.nowQ.Len() == 0 {
		if k.future.len() == 0 {
			return activation{}, false
		}
		t := k.future.peek().at
		if t > k.limit {
			return activation{}, false
		}
		if gap := t - k.now; gap >= k.ffHorizon {
			// The interval (now, t) holds no activation: a quiescent gap the
			// clock is about to jump over wholesale.
			k.ffJumps++
			k.ffSkipped += gap
		}
		for {
			k.nowQ.Push(k.future.pop())
			if k.future.len() == 0 || k.future.peek().at != t {
				break
			}
		}
		return k.nowQ.Front(), true
	}
	a := k.nowQ.Front()
	if a.at > k.limit {
		return activation{}, false
	}
	return a, true
}

// popNext removes and returns the next activation in (time, sequence) order,
// or reports false if none is due at or before the run limit.
func (k *Kernel) popNext() (activation, bool) {
	a, ok := k.frontDue()
	if ok {
		k.nowQ.Pop()
	}
	return a, ok
}

// Run executes activations until none remain or Stop is called. It returns
// the number of activations dispatched.
func (k *Kernel) Run() int {
	return k.RunUntil(maxTime)
}

// RunUntil executes activations with time <= limit. The clock never advances
// past the last dispatched activation; if the queue's head is beyond limit,
// the clock is set to limit and RunUntil returns. If processes remain blocked
// with no pending activation when the queue drains (a deadlock from the
// model's point of view) they are left parked; Blocked reports them.
//
// RunUntil is the dispatch driver: it pops activations and resumes each
// process's coroutine, which runs until the process parks (yielding control
// back) or exits, or runs a reactor's step in place. A parking process first
// consumes its own re-activations and any reactor steps ahead of them
// inline, so only genuine cross-process handoffs reach the driver.
//
//strings:hotpath
func (k *Kernel) RunUntil(limit Time) int {
	k.stopped = false
	k.limit = limit
	start := k.dispatched
	for !k.stopped {
		a, ok := k.popNext()
		if !ok {
			break
		}
		a.proc.pending--
		if a.proc.done || a.epoch != a.proc.epoch {
			continue // stale wakeup from an earlier park
		}
		k.now = a.at
		a.proc.wakeTag = a.tag
		k.dispatched++
		if a.proc.step != nil {
			k.react(a.proc)
			continue
		}
		k.resumes++
		k.running = a.proc
		if a.proc.resume == nil {
			a.proc.start()
		}
		a.proc.resume()
	}
	k.running = nil
	if !k.stopped && (k.future.len() > 0 || k.nowQ.Len() > 0) && k.now < limit {
		// The head activation is beyond the limit: the interval up to the
		// limit is known quiet, so the clock may advance to it wholesale.
		if gap := limit - k.now; gap >= k.ffHorizon {
			k.ffJumps++
			k.ffSkipped += gap
		}
		k.now = limit
	}
	return int(k.dispatched - start)
}

// NextEventTime returns the instant of the earliest pending activation, or
// ok=false when the kernel is quiescent (no activation anywhere — parked
// processes waiting on external input do not count). The value is a
// conservative lower bound: a stale activation (from a park that has since
// been woken another way) reports its scheduled time even though dispatching
// it will be a no-op. That direction of error is safe for the one consumer
// this hook exists for — the shard coordinator's conservative window
// computation — which may only ever *under*-estimate a shard's horizon.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.nowQ.Len() > 0 {
		return k.nowQ.Front().at, true
	}
	if k.future.len() > 0 {
		return k.future.peek().at, true
	}
	return 0, false
}

// Blocked returns the names of processes that are alive but have no pending
// activation — i.e. processes waiting on events that can no longer fire.
// Useful in tests to assert clean termination. The names are sorted so
// diagnostics never leak map-iteration order (stringscheck maporder parity).
func (k *Kernel) Blocked() []string {
	var names []string
	//lint:allow maporder -- p.Name() is a pure accessor and names are sorted below
	for p := range k.procs {
		if !p.done && p.pending == 0 && p.parked {
			names = append(names, p.Name())
		}
	}
	sort.Strings(names)
	return names
}

// ProcCount returns the number of live processes.
func (k *Kernel) ProcCount() int { return len(k.procs) }
