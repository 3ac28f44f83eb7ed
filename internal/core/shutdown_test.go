package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// After a run drains, the long-lived service processes (device drivers,
// backend accept loops, dispatchers, the mapper) are parked with nothing
// pending — the kernel reports them as blocked, and nothing else leaks.
func TestRunLeavesOnlyServiceProcessesParked(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "LAS"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(gaStream(4))
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	blocked := c.K.Blocked()
	for _, name := range blocked {
		switch {
		case hasPrefix(name, "gpu"), hasPrefix(name, "backend-"),
			hasPrefix(name, "devsched-"), name == "affinity-mapper",
			name == "sim-timers":
			// expected long-lived services
		case hasPrefix(name, "bt-"):
			t.Fatalf("backend thread %q leaked past its app's exit", name)
		default:
			t.Fatalf("unexpected parked process %q (all: %v)", name, blocked)
		}
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}

// Rain backend processes exit with their application; none may linger.
func TestRainBackendsExitWithApps(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: twoGPUNode(), Mode: ModeRain, Balance: "GMin"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run([]workload.StreamSpec{{
		Kind: workload.Gaussian, Count: 4, LambdaFactor: 0.6,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil || len(r.Errors) > 0 {
		t.Fatalf("run: %v %v", err, r.Errors)
	}
	for _, name := range c.K.Blocked() {
		if hasPrefix(name, "rain-") {
			t.Fatalf("rain backend %q leaked", name)
		}
	}
}

// settledGoroutines polls runtime.NumGoroutine until it falls to want or a
// second passes, and returns the last count: a closed shard coordinator's
// barrier workers exit asynchronously.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLeakCloseReapsEveryEnvironment stops runs mid-flight with a RunUntil
// horizon, in one environment and sharded per node, with multi-threaded
// apps parked inside the session lock. Close must unwind every process of
// every environment kernel, leave the results readable, and refuse a
// further run.
func TestLeakCloseReapsEveryEnvironment(t *testing.T) {
	for _, shards := range []int{0, 2} {
		base := runtime.NumGoroutine()
		c, err := New(Config{Seed: 3, Nodes: supernode(), Mode: ModeStrings, Balance: "GMin", DevPolicy: "TFS", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.RunUntil([]workload.StreamSpec{
			{Kind: workload.Gaussian, Count: 40, Lambda: 5 * sim.Millisecond, Node: 0, Tenant: 1, Weight: 1,
				Style: workload.StyleMultiThread},
			{Kind: workload.BlackScholes, Count: 40, Lambda: 5 * sim.Millisecond, Node: 1, Tenant: 2, Weight: 1},
		}, 500*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if c.Sharded() != (shards > 0) {
			t.Fatalf("shards=%d: Sharded() = %v", shards, c.Sharded())
		}
		if r.Finished >= r.Launched {
			t.Fatalf("shards=%d: horizon cut nothing off (%d of %d finished)", shards, r.Finished, r.Launched)
		}
		events := c.Dispatched()
		c.Close()
		if got := settledGoroutines(base); got > base {
			t.Errorf("shards=%d: %d goroutines after Close, want the baseline %d", shards, got, base)
		}
		for i, e := range c.envs {
			if n := e.k.ProcCount(); n != 0 {
				t.Errorf("shards=%d: environment %d kernel holds %d processes after Close", shards, i, n)
			}
		}
		if c.Dispatched() != events || r.Launched == 0 {
			t.Errorf("shards=%d: results changed after Close", shards)
		}
		c.Close() // idempotent
		if _, err := c.Run(nil); err == nil {
			t.Errorf("shards=%d: Run after Close succeeded", shards)
		}
	}
}
