package sim

import (
	"runtime"
	"testing"
)

// These tests count goroutines, so none of them runs in parallel: a
// process's coroutine is a goroutine, and the counts must only move with the
// kernel under test.

// TestReapUnwindsParkedProcess stops a process parked in WaitSignal: its
// deferred call runs, the code after the wait never does, and its coroutine
// goroutine is gone afterwards.
func TestReapUnwindsParkedProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	s := k.NewSignal()
	deferred := false
	k.Go("waiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.WaitSignal(s)
		t.Error("waiter resumed past its wait")
	})
	k.Run()
	if got := runtime.NumGoroutine(); got != base+1 {
		t.Fatalf("goroutines while parked = %d, want %d", got, base+1)
	}
	k.Reap()
	if !deferred {
		t.Error("reap did not run the parked process's deferred call")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after reap = %d, want the baseline %d", got, base)
	}
}

// TestReapGoBeforeRunCreatesNoGoroutine pins the lazy start: Go only
// records the process, and reaping a kernel that never ran drops its
// processes without running them.
func TestReapGoBeforeRunCreatesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	ran := 0
	for i := 0; i < 100; i++ {
		k.Go("idle", func(p *Proc) { ran++ })
	}
	k.GoNamed(func() string { return "named" }, func(p *Proc) { ran++ })
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after 101 Go calls = %d, want the baseline %d", got, base)
	}
	if k.ProcCount() != 101 {
		t.Errorf("ProcCount = %d, want 101", k.ProcCount())
	}
	k.Reap()
	if ran != 0 {
		t.Errorf("%d never-dispatched processes ran during reap", ran)
	}
	if k.ProcCount() != 0 {
		t.Errorf("ProcCount after reap = %d, want 0", k.ProcCount())
	}
}

// TestReapOnResetUnwindsHorizonParked checks that Reset reaps what a
// RunUntil horizon left suspended: sleepers and a queue reader all unwind,
// running their defers, and the armed timer reactor is dropped.
func TestReapOnResetUnwindsHorizonParked(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	unwound := 0
	for i := 0; i < 5; i++ {
		k.Go("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			for {
				p.Sleep(10)
			}
		})
	}
	q := NewQueue[int](k)
	k.Go("reader", func(p *Proc) {
		defer func() { unwound++ }()
		q.Get(p)
	})
	k.After(1000, func() { t.Error("timer past the horizon fired") })
	k.RunUntil(55)
	if got := runtime.NumGoroutine(); got != base+6 {
		t.Fatalf("goroutines at the horizon = %d, want %d (6 processes; the timer reactor holds none)", got, base+6)
	}
	if got := k.ProcCount(); got != 7 {
		t.Fatalf("ProcCount at the horizon = %d, want 7 (6 processes and the timer reactor)", got)
	}
	k.Reset(2)
	if unwound != 6 {
		t.Errorf("%d processes unwound, want 6", unwound)
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after Reset = %d, want the baseline %d", got, base)
	}
	// The reset kernel runs a new model from a clean slate.
	woke := Time(-1)
	k.Go("fresh", func(p *Proc) { p.Sleep(3); woke = p.Now() })
	k.Run()
	if woke != 3 {
		t.Errorf("fresh process woke at %v, want 3", woke)
	}
}

// TestReapBlockingDeferDoesNotResume covers deferred calls that act on the
// simulation while a process unwinds: a same-instant Sleep (a candidate for
// park's inline fast path), a wait on a signal, and an event firing that
// would wake another process. None of it may run simulated code on.
func TestReapBlockingDeferDoesNotResume(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	never := k.NewEvent()
	woken := k.NewEvent()
	s := k.NewSignal()
	reached := 0
	k.Go("sleepy-defer", func(p *Proc) {
		defer func() {
			p.Sleep(0)
			reached++
		}()
		p.Wait(never)
	})
	k.Go("waiting-defer", func(p *Proc) {
		defer func() {
			p.WaitSignal(s)
			reached++
		}()
		p.Wait(never)
	})
	k.Go("firing-defer", func(p *Proc) {
		defer woken.Fire()
		p.Wait(never)
	})
	k.Go("woken", func(p *Proc) {
		p.Wait(woken)
		reached++
	})
	k.Run()
	before := k.Dispatched()
	k.Reap()
	if reached != 0 {
		t.Errorf("%d blocks of simulated code ran during reap", reached)
	}
	if got := k.Dispatched(); got != before {
		t.Errorf("reap dispatched %d activations", got-before)
	}
	if _, ok := k.NextEventTime(); ok {
		t.Error("what the defers scheduled survived the reap")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after reap = %d, want the baseline %d", got, base)
	}
}

// TestReapGenuinePanicPropagates checks that only the reap sentinel is
// absorbed: a process's own panic reaches RunUntil's caller, which can still
// reap the rest, and a deferred call that panics while being reaped reaches
// Reap's caller.
func TestReapGenuinePanicPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	unwound := false
	k.Go("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(k.NewEvent())
	})
	k.Go("boom", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("RunUntil's caller recovered %v, want boom", r)
			}
		}()
		k.RunUntil(10)
		t.Error("RunUntil returned despite the process panicking")
	}()
	k.Reap()
	if !unwound {
		t.Error("reap after a panicked run did not unwind the parked process")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Errorf("goroutines after reap = %d, want the baseline %d", got, base)
	}

	k = NewKernel(1)
	k.Go("defer-boom", func(p *Proc) {
		defer func() { panic("defer boom") }()
		p.Wait(k.NewEvent())
	})
	k.Run()
	defer func() {
		if r := recover(); r != "defer boom" {
			t.Errorf("Reap's caller recovered %v, want defer boom", r)
		}
	}()
	k.Reap()
	t.Error("Reap returned despite a deferred call panicking")
}

// TestReapLeavesKernelQuiescent pins the state after a reap: no process, no
// pending activation, nothing blocked, while the clock and counters a
// finished run reports stay readable and the kernel stays usable.
func TestReapLeavesKernelQuiescent(t *testing.T) {
	k := NewKernel(1)
	k.Go("stuck", func(p *Proc) { p.Wait(k.NewEvent()) })
	k.Go("sleeper", func(p *Proc) { p.Sleep(1000) })
	k.After(500, func() {})
	k.RunUntil(100)
	now, dispatched := k.Now(), k.Dispatched()
	jumps, skipped := k.FastForwards()
	if k.ProcCount() == 0 {
		t.Fatal("setup left no process behind")
	}
	k.Reap()
	if k.ProcCount() != 0 {
		t.Errorf("ProcCount after reap = %d, want 0", k.ProcCount())
	}
	if at, ok := k.NextEventTime(); ok {
		t.Errorf("NextEventTime after reap = %v, want quiescent", at)
	}
	if b := k.Blocked(); len(b) != 0 {
		t.Errorf("Blocked after reap = %v, want none", b)
	}
	if k.Now() != now || k.Dispatched() != dispatched {
		t.Errorf("reap moved the clock or the dispatch count: now %v→%v, dispatched %d→%d",
			now, k.Now(), dispatched, k.Dispatched())
	}
	if j, s := k.FastForwards(); j != jumps || s != skipped {
		t.Errorf("reap moved the fast-forward counters")
	}
	k.Reap() // a second reap is a no-op
	fired := false
	k.After(5, func() { fired = true })
	k.Run()
	if !fired {
		t.Error("the timer facility did not restart after reap")
	}
}

// TestReapDuringRunPanics pins the misuse guard.
func TestReapDuringRunPanics(t *testing.T) {
	k := NewKernel(1)
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Reap during an active run did not panic")
			}
		}()
		k.Reap()
	})
	k.Run()
}
