// Package shard is a miniature stand-in for the real conservative window
// coordinator, doubling as a rawgo kernel-layer fixture: the kernel layer
// has no goroutine exemption, so spawning barrier workers with a raw `go`
// statement is flagged.
package shard

import "repro/internal/sim"

// Coordinator advances shard kernels inside conservative windows.
type Coordinator struct {
	kernels   []*sim.Kernel
	lookahead sim.Time
}

// Window runs one barrier phase: every kernel advances to the horizon on its
// own worker goroutine, and the barrier joins them before mailboxes drain.
func (c *Coordinator) Window(horizon sim.Time) {
	done := make(chan struct{}, len(c.kernels))
	for range c.kernels {
		go func() { // want `raw goroutine in a sim-driven package`
			done <- struct{}{}
		}()
	}
	for range c.kernels {
		<-done
	}
}
