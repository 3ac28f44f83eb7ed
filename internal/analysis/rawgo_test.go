package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestRawgo covers raw `go` statements (named and literal), the kernel
// process-API alternative, and //lint:allow suppression.
func TestRawgo(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "rawgo")
}

// TestRawgoFlagsKernel: internal/sim hands off through coroutines, so a
// raw goroutine there is flagged like in any other sim-driven package.
func TestRawgoFlagsKernel(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "repro/internal/sim")
}

// TestRawgoFlagsShardCoordinator: internal/sim/shard runs its barrier
// workers on the parallel package's pool, so a raw goroutine there is
// flagged too.
func TestRawgoFlagsShardCoordinator(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "repro/internal/sim/shard")
}

// TestRawgoSkipsNonSimPackages: goroutines outside the sim-driven domain
// are not checked.
func TestRawgoSkipsNonSimPackages(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Rawgo, "notsim")
}
