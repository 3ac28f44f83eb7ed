package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// waitKind is one wait of the equivalence loop below.
type waitKind int

const (
	waitSignal waitKind = iota
	waitSignalTimeout
	waitSleep
)

// loopModel builds a small world around one subject process that waits on
// a shared signal, on the signal with a timeout, or on the clock, chosen
// from its own random stream, and logs every wakeup. Three pokers notify
// the signal at random instants from the kernel's stream and a pair of
// timers notifies it too. The subject is a coroutine or, with asReactor, a
// reactor running the same loop as a state machine. It returns the full
// dispatch log and the kernel after the run.
func loopModel(seed int64, asReactor bool) ([]string, *Kernel) {
	k := NewKernel(seed)
	sig := k.NewSignal()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", k.Now())+fmt.Sprintf(format, args...))
	}
	for i := 0; i < 3; i++ {
		k.Go(fmt.Sprintf("poker%d", i), func(p *Proc) {
			for j := 0; j < 8; j++ {
				p.Sleep(Time(k.Rand().Intn(12)))
				if k.Rand().Intn(2) == 0 {
					sig.Notify()
				} else {
					sig.NotifyOne()
				}
				logf("poker%d notify waiting=%d", i, sig.Waiting())
			}
		})
	}
	k.After(7, func() { sig.Notify(); logf("timer notify") })
	k.After(31, func() { sig.NotifyOne(); logf("timer notify-one") })

	choices := rand.New(rand.NewSource(seed))
	const iters = 30
	pick := func() (waitKind, Time) {
		return waitKind(choices.Intn(3)), Time(choices.Intn(16) - 3)
	}
	if !asReactor {
		k.Go("subject", func(p *Proc) {
			for i := 0; i < iters; i++ {
				switch w, d := pick(); w {
				case waitSignal:
					p.WaitSignal(sig)
				case waitSignalTimeout:
					p.WaitSignalTimeout(sig, d)
				case waitSleep:
					p.Sleep(d)
				}
				logf("subject woke tag=%d waiting=%d", p.wakeTag, sig.Waiting())
			}
		})
		k.Run()
		return log, k
	}
	i, started := 0, false
	k.React("subject", func(p *Proc) {
		if started {
			logf("subject woke tag=%d waiting=%d", p.wakeTag, sig.Waiting())
			i++
		}
		started = true
		if i == iters {
			return
		}
		switch w, d := pick(); w {
		case waitSignal:
			p.ArmSignal(sig)
		case waitSignalTimeout:
			p.ArmSignalTimeout(sig, d)
		case waitSleep:
			p.ArmSleep(d)
		}
	})
	k.Run()
	return log, k
}

// TestReactorEquivalence is the reactor's contract: a loop that never
// blocks mid-way, written once as a coroutine and once as a reactor,
// produces the identical dispatch log, clock, Dispatched count and
// leftover blocked set across many seeds — signal wakeups, timeouts that
// race notifications at the same instant, negative and zero durations.
func TestReactorEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		goLog, gk := loopModel(seed, false)
		reLog, rk := loopModel(seed, true)
		if !slices.Equal(goLog, reLog) {
			t.Fatalf("seed %d: dispatch logs differ\ncoroutine:\n%s\nreactor:\n%s",
				seed, strings.Join(goLog, "\n"), strings.Join(reLog, "\n"))
		}
		if gk.Now() != rk.Now() || gk.Dispatched() != rk.Dispatched() {
			t.Fatalf("seed %d: end %v/%d events (coroutine) vs %v/%d (reactor)",
				seed, gk.Now(), gk.Dispatched(), rk.Now(), rk.Dispatched())
		}
		if g, r := gk.Blocked(), rk.Blocked(); !slices.Equal(g, r) {
			t.Fatalf("seed %d: blocked %v (coroutine) vs %v (reactor)", seed, g, r)
		}
		_, _, reacted := rk.Handoffs()
		_, _, goReacted := gk.Handoffs()
		if reacted <= goReacted {
			t.Fatalf("seed %d: reactor run made %d reactor steps, coroutine run %d; want more",
				seed, reacted, goReacted)
		}
		gk.Reap()
		rk.Reap()
	}
}

// TestReactorStartsNoGoroutine checks that a reactor's steps run on the
// dispatching stack: no goroutine appears while it runs or after.
func TestReactorStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	steps := 0
	k.React("r", func(p *Proc) {
		if got := runtime.NumGoroutine(); got != base {
			t.Errorf("step %d: %d goroutines, want the baseline %d", steps, got, base)
		}
		steps++
		if steps < 5 {
			p.ArmSleep(10)
		}
	})
	k.Run()
	if steps != 5 || k.Now() != 40 {
		t.Fatalf("%d steps ending at %v, want 5 ending at 40", steps, k.Now())
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after the run, want the baseline %d", got, base)
	}
}

// TestReactorRetiresWithoutArming checks that a step that arms nothing
// ends the reactor: it leaves the process table and Blocked, and a later
// notification of the signal it once waited on is a stale no-op.
func TestReactorRetiresWithoutArming(t *testing.T) {
	k := NewKernel(1)
	sig := k.NewSignal()
	closed, steps := false, 0
	r := k.React("r", func(p *Proc) {
		steps++
		if !closed {
			p.ArmSignal(sig)
		}
	})
	k.Run()
	if k.ProcCount() != 1 || !slices.Equal(k.Blocked(), []string{"r"}) {
		t.Fatalf("armed reactor: ProcCount %d, Blocked %v; want 1 and [r]", k.ProcCount(), k.Blocked())
	}
	k.Go("closer", func(p *Proc) {
		closed = true
		sig.Notify()
		p.Sleep(5)
		sig.Notify() // nobody waits any more
	})
	k.Run()
	if steps != 2 || !r.done || k.ProcCount() != 0 || len(k.Blocked()) != 0 {
		t.Fatalf("after close: steps %d, done %v, ProcCount %d, Blocked %v; want 2, true, 0, []",
			steps, r.done, k.ProcCount(), k.Blocked())
	}
}

// timeoutRace runs one subject that waits on sig with a timeout of 5 while
// a notifier fires sig at notifyAt, then sleeps 20. It reports the wake
// instant, whether the signal won, the waiter count the subject saw on
// waking, and when its following sleep ended.
func timeoutRace(asReactor bool, notifyAt Time) (woke Time, signalled bool, waiting int, after Time) {
	k := NewKernel(1)
	sig := k.NewSignal()
	k.Go("notifier", func(p *Proc) {
		p.Sleep(notifyAt)
		sig.Notify()
	})
	record := func(p *Proc) {
		woke, signalled, waiting = p.Now(), p.wakeTag == wakeEvent, sig.Waiting()
	}
	if asReactor {
		step := 0
		k.React("subject", func(p *Proc) {
			switch step++; step {
			case 1:
				p.ArmSignalTimeout(sig, 5)
			case 2:
				record(p)
				p.ArmSleep(20)
			case 3:
				after = p.Now()
			}
		})
	} else {
		k.Go("subject", func(p *Proc) {
			p.WaitSignalTimeout(sig, 5)
			record(p)
			p.Sleep(20)
			after = p.Now()
		})
	}
	k.Run()
	return
}

// TestReactorTimeoutRaces pins ArmSignalTimeout to WaitSignalTimeout when
// the signal and the timeout race: a signal first wakes the subject and
// makes its timeout stale; a timeout first takes the subject off the
// waiter list, so the later signal wakes nothing; at the same instant the
// timeout wins, because its activation was scheduled when the wait began,
// before the notification's.
func TestReactorTimeoutRaces(t *testing.T) {
	type outcome struct {
		woke      Time
		signalled bool
		waiting   int
		after     Time
	}
	for _, tc := range []struct {
		name     string
		notifyAt Time
		want     outcome
	}{
		{"signal-then-timeout", 2, outcome{2, true, 0, 22}},
		{"timeout-then-signal", 9, outcome{5, false, 0, 25}},
		{"same-instant", 5, outcome{5, false, 0, 25}},
	} {
		for _, asReactor := range []bool{false, true} {
			var got outcome
			got.woke, got.signalled, got.waiting, got.after = timeoutRace(asReactor, tc.notifyAt)
			if got != tc.want {
				t.Errorf("%s (reactor=%v): got %+v, want %+v", tc.name, asReactor, got, tc.want)
			}
		}
	}
}

// TestReactorParkGuard checks that every parking method panics with the
// reactor's name when a step calls it, before touching the schedule: the
// panic reaches RunUntil's caller, no activation or waiter is left behind,
// and the kernel resets cleanly.
func TestReactorParkGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		park func(p *Proc, k *Kernel, sig *Signal)
	}{
		{"Sleep", func(p *Proc, _ *Kernel, _ *Signal) { p.Sleep(5) }},
		{"Yield", func(p *Proc, _ *Kernel, _ *Signal) { p.Yield() }},
		{"Wait", func(p *Proc, k *Kernel, _ *Signal) { p.Wait(k.NewEvent()) }},
		{"WaitTimeout", func(p *Proc, k *Kernel, _ *Signal) { p.WaitTimeout(k.NewEvent(), 5) }},
		{"WaitSignal", func(p *Proc, _ *Kernel, sig *Signal) { p.WaitSignal(sig) }},
		{"WaitSignalTimeout", func(p *Proc, _ *Kernel, sig *Signal) { p.WaitSignalTimeout(sig, 5) }},
		{"Queue.Get", func(p *Proc, k *Kernel, _ *Signal) { NewQueue[int](k).Get(p) }},
		{"Queue.GetTimeout", func(p *Proc, k *Kernel, _ *Signal) { NewQueue[int](k).GetTimeout(p, 5) }},
		{"Semaphore.Acquire", func(p *Proc, k *Kernel, _ *Signal) { k.NewSemaphore(0).Acquire(p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			sig := k.NewSignal()
			r := k.React("bad", func(p *Proc) { tc.park(p, k, sig) })
			msg := runPanics(t, k)
			if msg != "sim: reactor bad parked" {
				t.Fatalf("panic %q, want %q", msg, "sim: reactor bad parked")
			}
			if _, ok := k.NextEventTime(); ok || sig.Waiting() != 0 || r.pending != 0 {
				t.Fatalf("the guard left state behind: pending activation %v, %d signal waiters, %d pending",
					ok, sig.Waiting(), r.pending)
			}
			if !r.done || k.active() {
				t.Fatalf("after the panic: reactor done %v, kernel active %v; want true, false", r.done, k.active())
			}
			k.Reset(1)
			if k.ProcCount() != 0 {
				t.Fatalf("ProcCount after Reset = %d", k.ProcCount())
			}
		})
	}
}

// runPanics runs k and returns the message of the panic that must escape.
func runPanics(t *testing.T, k *Kernel) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("run did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	k.Run()
	return ""
}

// TestReactorArmMisuse checks the arm methods' own guard: a coroutine
// cannot arm, and a step cannot arm twice.
func TestReactorArmMisuse(t *testing.T) {
	k := NewKernel(1)
	k.Go("co", func(p *Proc) { p.ArmSleep(1) })
	if msg := runPanics(t, k); !strings.Contains(msg, "co armed a wakeup outside a reactor step") {
		t.Fatalf("coroutine arming: panic %q", msg)
	}
	k.Reset(1)
	k.React("twice", func(p *Proc) {
		p.ArmSleep(1)
		p.ArmSignal(k.NewSignal())
	})
	if msg := runPanics(t, k); !strings.Contains(msg, "twice armed a wakeup") {
		t.Fatalf("double arming: panic %q", msg)
	}
	k.Reset(1)
}

// TestReactorPanicInlineUnderProcess checks a step that panics while it
// runs inline in another process's park: the panic reaches RunUntil's
// caller, the reactor is over, the process it ran under is not marked
// done, and Reset still unwinds everything.
func TestReactorPanicInlineUnderProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	steps := 0
	r := k.React("r", func(p *Proc) {
		if steps++; steps == 2 {
			panic("step failed")
		}
		p.ArmSleep(5)
	})
	q := k.Go("q", func(p *Proc) {
		p.Sleep(10) // r's second step (t=5) runs inline in this park
	})
	if msg := runPanics(t, k); msg != "step failed" {
		t.Fatalf("panic %q, want %q", msg, "step failed")
	}
	if resumes, inline, reacted := k.Handoffs(); resumes != 1 || inline != 0 || reacted != 2 {
		t.Fatalf("Handoffs = %d, %d, %d; want 1 resume (q's start) and 2 reactor steps", resumes, inline, reacted)
	}
	if !r.done || q.done || k.active() {
		t.Fatalf("reactor done %v, q done %v, kernel active %v; want true, false, false", r.done, q.done, k.active())
	}
	k.Reset(1)
	if k.ProcCount() != 0 || runtime.NumGoroutine() != base {
		t.Fatalf("after Reset: ProcCount %d, %d goroutines (baseline %d)", k.ProcCount(), runtime.NumGoroutine(), base)
	}
}

// TestHandoffs pins the handoff split on a small schedule and its reset.
// A reactor steps at 0, 1, 2 and 3 and then retires; a coroutine starts
// at 0 and sleeps to 2 and to 4. RunUntil runs the reactor's first step
// and resumes the coroutine once; every later activation is dispatched
// inside the coroutine's parks: the reactor's steps and the coroutine's
// own wakeups, with no switch.
func TestHandoffs(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.React("r", func(p *Proc) {
		if n++; n < 4 {
			p.ArmSleep(1)
		}
	})
	k.Go("a", func(p *Proc) {
		p.Sleep(2)
		p.Sleep(2)
	})
	k.Run()
	resumes, inline, reacted := k.Handoffs()
	if resumes != 1 || inline != 2 || reacted != 4 {
		t.Fatalf("Handoffs = %d, %d, %d; want 1, 2, 4", resumes, inline, reacted)
	}
	if sum := resumes + inline + reacted; sum != k.Dispatched() {
		t.Fatalf("handoffs sum to %d, Dispatched = %d", sum, k.Dispatched())
	}
	k.Reset(1)
	if resumes, inline, reacted := k.Handoffs(); resumes|inline|reacted != 0 {
		t.Fatalf("Handoffs after Reset = %d, %d, %d; want zeros", resumes, inline, reacted)
	}
}

// TestReactorNegativeDurationsClamp is TestNegativeTimeoutsClamp for the
// arm methods.
func TestReactorNegativeDurationsClamp(t *testing.T) {
	k := NewKernel(1)
	var got []string
	step := 0
	sig := k.NewSignal()
	k.React("re", func(p *Proc) {
		switch step++; step {
		case 1:
			p.ArmSleep(-1)
		case 2:
			got = append(got, fmt.Sprintf("ArmSleep %d", p.Now()))
			p.ArmSignalTimeout(sig, -5)
		case 3:
			got = append(got, fmt.Sprintf("ArmSignalTimeout %d %v waiting=%d", p.Now(), p.wakeTag == wakeEvent, sig.Waiting()))
		}
	})
	k.Run()
	want := []string{"ArmSleep 0", "ArmSignalTimeout 0 false waiting=0"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}
