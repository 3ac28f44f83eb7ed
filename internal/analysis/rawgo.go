package analysis

import (
	"go/ast"
)

// Rawgo forbids raw goroutines in sim-driven packages.
//
// The kernel runs simulated processes as coroutines (iter.Pull): it hands
// control to exactly one process at a time by resuming its coroutine, and
// only advances the virtual clock once that process parks and yields back
// (internal/sim/kernel.go). A raw `go func` in scheduling code runs
// outside that handoff, racing the kernel on shared state and observing a
// clock that may advance under it. Concurrency inside the simulated world
// must go through sim.Kernel process APIs (Kernel.Go / Proc.Wait / Queue /
// Signal). Real concurrency at the system boundary — a TCP accept loop, an
// experiment worker pool where each worker owns a private kernel — is
// legitimate and carries a //lint:allow rawgo with its justification. The
// kernel layer gets no exemption: internal/sim hands off through
// coroutines and internal/sim/shard runs its barrier workers on the
// parallel package's pool, so neither needs a `go` statement.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc: "forbid `go` statements in sim-driven packages; simulated concurrency " +
		"must use the kernel's coroutine-handoff process APIs",
	Run: runRawgo,
}

func runRawgo(pass *Pass) error {
	if !simDriven(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(g.Pos(),
				"raw goroutine in a sim-driven package bypasses the kernel's coroutine handoff; use sim.Kernel process APIs (Kernel.Go/Proc.Wait), or //lint:allow rawgo -- <reason> for real system-boundary concurrency")
			return true
		})
	}
	return nil
}
