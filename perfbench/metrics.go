package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef describes one reported metric. The catalogue below is the single
// list the benchmark prints from; BENCHMARK.json at the repository root must
// name the same metrics with the same units and directions (see
// TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// defines every one of them and none can be 0.
var endToEnd = []metricDef{
	{"run_cpu_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.2},
}

// selfPctLayers are the layers the CPU profile is partitioned into, in
// report order: the repository's packages, keyed by import path below
// repro/internal. runtime.gc and unattributed are added separately.
var selfPctLayers = []string{
	"sim", "shard", "gpu", "devsched", "packer", "interpose", "rpcproto",
	"cuda", "remoting", "balancer", "core", "workload", "cluster",
	"experiments", "trace",
}

// perLayer are the metrics of a traced run (--trace 1). A metric a workload
// cannot observe reads 0 there (NOTES.md lists which workload shows which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Simulated outcomes of the modelled system (virtual time; exact
		// for a given seed).
		{"sim_p50_s", "sim_s", "lower", 0},
		{"sim_p99_s", "sim_s", "lower", 0},
		{"sim_p999_s", "sim_s", "lower", 0},
		{"sim_requests", "count", "higher", 0},
		{"sim_admission_wait_s", "sim_s", "lower", 0},
		{"sim_fairness", "jain", "higher", 0},
		{"paper_err_pct", "%", "lower", 0},
		{"failed_frac", "fraction", "lower", 0},

		{"sim.events_per_request", "count", "lower", 0},
		{"sim.ns_per_event", "ns", "lower", 0},
		{"sim.ns_per_request", "ns", "lower", 0},
		{"sim.wall_s_per_virtual_s", "s/sim_s", "lower", 0},
		{"sim.handoff_ns", "ns", "lower", 0},
		{"sim.ff_jumps_per_request", "count", "higher", 0},
		{"sim.ff_skip_ratio", "fraction", "higher", 0},
		{"sim.abandoned_procs_per_run", "count", "lower", 0},

		{"gpu.ops_per_request", "count", "lower", 0},
		{"gpu.op_s_per_request", "sim_s", "lower", 0},
		{"gpu.switches_per_request", "count", "lower", 0},

		{"devsched.wait_s_per_request", "sim_s", "lower", 0},
		{"devsched.wakes_per_request", "count", "lower", 0},
		{"devsched.pick_ns", "ns", "lower", 0},

		{"packer.execs_per_request", "count", "lower", 0},
		{"packer.exec_s_per_request", "sim_s", "lower", 0},
		{"packer.pmt_release_ns", "ns", "lower", 0},

		{"interpose.calls_per_request", "count", "lower", 0},
		{"interpose.select_s_per_request", "sim_s", "lower", 0},
		{"rpcproto.roundtrip_ns", "ns", "lower", 0},

		{"balancer.spill_ratio", "fraction", "lower", 0},
		{"balancer.select_ns", "ns", "lower", 0},

		{"core.new_ms", "ms", "lower", 0},
		{"workload.births_ms", "ms", "lower", 0},

		{"cluster.conflict_ratio", "fraction", "lower", 0},
		{"cluster.parked_frac", "fraction", "lower", 0},
		{"cluster.peak_parked", "count", "lower", 0},
		{"cluster.refreshes", "count", "lower", 0},
	}
	for _, f := range figureNames {
		defs = append(defs, metricDef{"experiments." + f + "_s", "s", "lower", 0})
	}
	defs = append(defs,
		metricDef{"experiments.simulations", "count", "lower", 0},
		metricDef{"trace.spans_per_request", "count", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
		metricDef{"trace.peak_heap_mb", "MB", "lower", 0},
		metricDef{"runtime.allocs_per_request", "count", "lower", 0},
		metricDef{"runtime.bytes_per_request", "B", "lower", 0},
		metricDef{"runtime.retained_mb_per_run", "MB", "lower", 0},
	)
	for _, l := range selfPctLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower", 0})
	}
	return append(defs,
		metricDef{"runtime.gc_self_pct", "%", "lower", 0},
		metricDef{"unattributed.self_pct", "%", "lower", 0},
	)
}()

// figureNames are the paper-figures steps, in run order.
var figureNames = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "headline"}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fillMetrics builds the metrics map for defs from values, failing on a
// missing name, a name values has but defs lacks, or a non-finite value.
func fillMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not catalogued: %v", extra)
	}
	return out, nil
}

// encodeResult renders r as one JSON line.
func encodeResult(r result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}
