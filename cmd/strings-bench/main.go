// strings-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	strings-bench [-exp all|table1|fig1|fig2|fig9|fig10|fig11|fig12|fig13|fig14|fig15|headline|frag|ablations|faults|mega]
//	              [-requests N] [-lambda F] [-seed S] [-pairs N] [-width W]
//	              [-parallel N] [-seeds N] [-mega-requests N] [-shards N]
//	              [-cpuprofile out.pprof] [-memprofile out.pprof]
//	              [-bench-json BENCH_simcore.json] [-bench-sweep BENCH_sweep.json]
//	              [-trace out.json]
//
// Each experiment prints the same rows/series as the corresponding table or
// figure in "Scheduling Multi-tenant Cloud Workloads on Accelerator-based
// Systems" (SC'14). Absolute numbers come from the simulated testbed; the
// shapes — which policy wins, by roughly what factor — are the
// reproduction targets. The faults experiment is opt-in: it is excluded
// from -exp all and runs only when named explicitly. The frag experiment
// is the slice-placement study: MIG-partitioned devices under mixed
// 1g..7g tenants, comparing the fragmentation-gradient policy against
// GMin and GRR on stranded capacity and tail latency.
//
// -parallel bounds how many experiment cells run concurrently (0 =
// GOMAXPROCS, 1 = sequential). Output is byte-identical at every setting:
// cells are collected in grid order, not completion order.
//
// -bench-json switches the binary into benchmark mode: instead of the
// figure sweeps it runs the standard simulator-throughput scenario (a busy
// two-GPU Strings node, the same one BenchmarkSimulatorThroughput times),
// and writes events/sec, ns/event and allocs/event to the given JSON file.
// -exp mega is the macro-benchmark: one -mega-requests-long stream of
// light-profile requests through a two-GPU Strings node, reporting events/sec,
// ns/event, allocs/event and the fast-forward skip ratio; its mega_* keys are
// merged into the bench JSON without disturbing the standard scenario's keys.
// With -shards N the mega run instead uses the four-node sharded fleet: the
// same traffic split across four shard kernels advancing concurrently under
// the conservative window protocol, timed at 1 and N barrier workers, with
// bit-identical simulated results verified between the passes and the
// parallel speedup recorded (mega_sharded_*/mega_shards keys).
// -bench-sweep times the figure grid sequentially and at -parallel workers,
// verifies the tables are identical, and writes the speedup to the given
// JSON file. -trace runs the same throughput scenario with the span recorder
// attached and writes the trace (Chrome trace-event JSON, or JSONL when the
// path ends in .jsonl); combined with -bench-json it also reports the
// recorder's per-event overhead. -cpuprofile and -memprofile capture pprof
// profiles of whatever ran.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/parallel"
	"repro/stringsched"
)

// benchReport is the BENCH_simcore.json schema: raw totals plus the derived
// per-event rates that track kernel fast-path regressions. The traced_*
// fields appear only when -trace also ran the scenario with the span
// recorder enabled; they track the observability layer's overhead.
type benchReport struct {
	Scenario             string  `json:"scenario"`
	Iterations           int     `json:"iterations"`
	WallSeconds          float64 `json:"wall_seconds"`
	VirtualSeconds       float64 `json:"virtual_seconds"`
	Events               uint64  `json:"events"`
	EventsPerSec         float64 `json:"events_per_sec"`
	NsPerEvent           float64 `json:"ns_per_event"`
	AllocsPerEvent       float64 `json:"allocs_per_event"`
	BytesPerEvent        float64 `json:"bytes_per_event"`
	TracedNsPerEvent     float64 `json:"traced_ns_per_event,omitempty"`
	TracedAllocsPerEvent float64 `json:"traced_allocs_per_event,omitempty"`
	TraceOverheadPct     float64 `json:"trace_overhead_pct,omitempty"`
	TraceSpans           int     `json:"trace_spans,omitempty"`
}

// throughputScenario runs one instance of the standard simulator-throughput
// scenario (the busy two-GPU Strings node BenchmarkSimulatorThroughput
// times), optionally with a trace recorder attached, and returns the kernel
// event count and virtual seconds simulated.
func throughputScenario(seed int64, rec *stringsched.TraceRecorder) (uint64, float64, error) {
	c, err := stringsched.NewCluster(stringsched.Config{
		Seed: seed,
		Nodes: []stringsched.NodeConfig{{Devices: []stringsched.DeviceSpec{
			stringsched.Quadro2000, stringsched.TeslaC2050,
		}}},
		Mode:     stringsched.ModeStrings,
		Balance:  "GMin",
		Recorder: rec,
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	r, err := c.Run([]stringsched.StreamSpec{{
		Kind: stringsched.MonteCarlo, Count: 6, LambdaFactor: 0.5,
		Node: 0, Tenant: 1, Weight: 1,
	}})
	if err != nil {
		return 0, 0, err
	}
	if len(r.Errors) > 0 {
		return 0, 0, fmt.Errorf("simulation errors: %v", r.Errors)
	}
	return c.K.Dispatched(), r.EndTime.Seconds(), nil
}

// writeTrace exports a trace set to path; the extension picks the format
// (.jsonl for compact JSONL, anything else for Chrome trace-event JSON).
func writeTrace(path string, set *stringsched.TraceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = set.WriteJSONL(f)
	} else {
		err = set.WriteChrome(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBenchJSON runs the simulator-throughput scenario repeatedly and writes
// the aggregate rates to path. When tracePath is non-empty it runs the
// scenario a second time with the span recorder enabled, reports the traced
// rates alongside the baseline, and writes the final iteration's span
// stream to tracePath.
func runBenchJSON(out io.Writer, path string, seed int64, iters int, tracePath string) error {
	if iters < 1 {
		return fmt.Errorf("-bench-iters must be at least 1 (got %d)", iters)
	}
	measure := func(traced bool) (rate struct {
		events  uint64
		virtual float64
		wallSec float64
		wallNs  float64
		allocs  uint64
		bytes   uint64
	}, set *stringsched.TraceSet, err error) {
		// One recorder serves every traced iteration (reset in between), so
		// the traced pass measures recording cost, not buffer re-growth.
		var rec *stringsched.TraceRecorder
		if traced {
			rec = stringsched.NewTraceRecorder()
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		sw := parallel.StartStopwatch()
		for i := 0; i < iters; i++ {
			if traced && i > 0 {
				rec.Reset()
			}
			ev, vs, err := throughputScenario(seed+int64(i), rec)
			if err != nil {
				return rate, nil, err
			}
			rate.events += ev
			rate.virtual += vs
			if traced && i == iters-1 {
				set = rec.Snapshot()
			}
		}
		rate.wallSec, rate.wallNs = sw.Seconds(), float64(sw.Nanoseconds())
		runtime.ReadMemStats(&ms1)
		rate.allocs = ms1.Mallocs - ms0.Mallocs
		rate.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		return rate, set, nil
	}
	base, _, err := measure(false)
	if err != nil {
		return err
	}
	rep := benchReport{
		Scenario:       "two-GPU Strings node, GMin, 6 MonteCarlo requests",
		Iterations:     iters,
		WallSeconds:    base.wallSec,
		VirtualSeconds: base.virtual,
		Events:         base.events,
		EventsPerSec:   float64(base.events) / base.wallSec,
		NsPerEvent:     base.wallNs / float64(base.events),
		AllocsPerEvent: float64(base.allocs) / float64(base.events),
		BytesPerEvent:  float64(base.bytes) / float64(base.events),
	}
	if tracePath != "" {
		traced, set, err := measure(true)
		if err != nil {
			return err
		}
		rep.TracedNsPerEvent = traced.wallNs / float64(traced.events)
		rep.TracedAllocsPerEvent = float64(traced.allocs) / float64(traced.events)
		rep.TraceOverheadPct = 100 * (rep.TracedNsPerEvent - rep.NsPerEvent) / rep.NsPerEvent
		rep.TraceSpans = len(set.Spans)
		if err := writeTrace(tracePath, set); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d spans, %d events, %d decisions (traced overhead %.1f%%)\n",
			tracePath, len(set.Spans), len(set.Events), len(set.Decisions), rep.TraceOverheadPct)
	}
	if err := mergeBenchJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %.0f events/sec, %.0f ns/event, %.2f allocs/event (%d events, %.2fs wall)\n",
		path, rep.EventsPerSec, rep.NsPerEvent, rep.AllocsPerEvent, rep.Events, rep.WallSeconds)
	return nil
}

// mergeBenchJSON overlays rep's fields onto whatever JSON object already
// lives at path and writes the union back. The bench file accumulates keys
// from independent passes (the standard throughput pass, the traced pass, the
// mega macro-run); a pass must refresh its own keys without dropping the
// others'. MarshalIndent sorts object keys, so the output is deterministic
// regardless of merge order.
func mergeBenchJSON(path string, rep any) error {
	merged := map[string]any{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &merged); err != nil {
			return fmt.Errorf("%s: existing contents are not a JSON object (refusing to clobber): %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	var fresh map[string]any
	if err := json.Unmarshal(raw, &fresh); err != nil {
		return err
	}
	for k, v := range fresh {
		merged[k] = v
	}
	out, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(out, '\n'))
}

// writeFileAtomic writes data to path via a temp file in the same directory
// and a rename, so a crash mid-write (or a concurrent reader in CI) never
// observes a truncated bench file. The bench JSON is read-modify-written by
// several independent passes; the rename makes each update all-or-nothing.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// megaReport is the mega macro-run's slice of the BENCH_simcore.json schema.
// All keys are mega_-prefixed so mergeBenchJSON can refresh them without
// touching the standard scenario's numbers (and vice versa).
type megaReport struct {
	Scenario       string  `json:"mega_scenario"`
	Requests       int     `json:"mega_requests"`
	Finished       int     `json:"mega_finished"`
	Events         uint64  `json:"mega_events"`
	WallSeconds    float64 `json:"mega_wall_seconds"`
	VirtualSeconds float64 `json:"mega_virtual_seconds"`
	EventsPerSec   float64 `json:"mega_events_per_sec"`
	NsPerEvent     float64 `json:"mega_ns_per_event"`
	AllocsPerEvent float64 `json:"mega_allocs_per_event"`
	FFJumps        uint64  `json:"mega_ff_jumps"`
	FFSkipRatio    float64 `json:"mega_ff_skip_ratio"`
}

// runBenchMega runs the mega macro-scenario (stringsched.RunMega: a single
// stream of `requests` Gaussian-elimination requests through a two-GPU
// Strings node) once, and merges the mega_* metrics into the bench JSON at
// path.
func runBenchMega(out io.Writer, path string, seed int64, requests int) error {
	if requests < 1 {
		return fmt.Errorf("-mega-requests must be at least 1 (got %d)", requests)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	sw := parallel.StartStopwatch()
	res, err := stringsched.RunMega(seed, requests)
	if err != nil {
		return err
	}
	wallSec, wallNs := sw.Seconds(), float64(sw.Nanoseconds())
	runtime.ReadMemStats(&ms1)
	allocs := ms1.Mallocs - ms0.Mallocs
	rep := megaReport{
		Scenario:       fmt.Sprintf("two-GPU Strings node, GMin, %d Gaussian requests", requests),
		Requests:       requests,
		Finished:       res.Finished,
		Events:         res.Events,
		WallSeconds:    wallSec,
		VirtualSeconds: res.EndTime.Seconds(),
		EventsPerSec:   float64(res.Events) / wallSec,
		NsPerEvent:     wallNs / float64(res.Events),
		AllocsPerEvent: float64(allocs) / float64(res.Events),
		FFJumps:        res.FFJumps,
		FFSkipRatio:    res.SkipRatio(),
	}
	if err := mergeBenchJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: mega %d requests, %d events, %.0f events/sec, %.0f ns/event, %.2f allocs/event, %d ff jumps (%.1f%% of timeline skipped), %.2fs wall\n",
		path, rep.Requests, rep.Events, rep.EventsPerSec, rep.NsPerEvent, rep.AllocsPerEvent,
		rep.FFJumps, 100*rep.FFSkipRatio, rep.WallSeconds)
	return nil
}

// megaShardReport is the sharded mega macro-run's slice of the bench JSON.
// The mega_sharded_* keys are the simulated outcome — bit-identical at any
// -shards setting, which is what CI diffs between its -shards 1 and -shards 4
// variants — while the remaining keys (worker count, wall clocks, speedup)
// describe machine-dependent timing. Cores/gomaxprocs make the speedup honest
// (same convention as BENCH_sweep.json): a 1-core container cannot show one,
// and the file says so.
type megaShardReport struct {
	Scenario       string  `json:"mega_sharded_scenario"`
	Requests       int     `json:"mega_sharded_requests"`
	Finished       int     `json:"mega_sharded_finished"`
	Events         uint64  `json:"mega_sharded_events"`
	VirtualSeconds float64 `json:"mega_sharded_virtual_seconds"`
	FFJumps        uint64  `json:"mega_sharded_ff_jumps"`
	FFSkipRatio    float64 `json:"mega_sharded_ff_skip_ratio"`
	Windows        uint64  `json:"mega_sharded_windows"`
	SoloRuns       uint64  `json:"mega_sharded_solo_runs"`
	Messages       uint64  `json:"mega_sharded_messages"`
	LookaheadUS    int64   `json:"mega_sharded_lookahead_us"`
	Identical      bool    `json:"mega_sharded_identical"`

	Shards       int     `json:"mega_shards"`
	Cores        int     `json:"mega_cores"`
	Gomaxprocs   int     `json:"mega_gomaxprocs"`
	SeqSeconds   float64 `json:"mega_seq_seconds"`
	ParSeconds   float64 `json:"mega_par_seconds"`
	Speedup      float64 `json:"mega_parallel_speedup"`
	EventsPerSec float64 `json:"mega_par_events_per_sec"`
	NsPerEvent   float64 `json:"mega_par_ns_per_event"`
}

// runBenchMegaSharded runs the sharded mega macro-scenario
// (stringsched.RunMegaSharded: the mega traffic split across a four-node,
// four-shard fleet) twice — once with one barrier worker, once with shards —
// verifies the two passes produced bit-identical simulated results, and
// merges the comparison into the bench JSON at path. A mismatch is a hard
// error after the file is written: the speedup is worthless if the answers
// changed.
func runBenchMegaSharded(out io.Writer, path string, seed int64, requests, shards int) error {
	if requests < 1 {
		return fmt.Errorf("-mega-requests must be at least 1 (got %d)", requests)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1 in sharded mega mode (got %d)", shards)
	}
	pass := func(workers int) (stringsched.MegaResult, stringsched.ShardStats, float64, error) {
		runtime.GC()
		sw := parallel.StartStopwatch()
		res, stats, err := stringsched.RunMegaSharded(seed, requests, workers)
		return res, stats, sw.Seconds(), err
	}
	seqRes, seqStats, seqSec, err := pass(1)
	if err != nil {
		return err
	}
	parRes, parStats, parSec, err := pass(shards)
	if err != nil {
		return err
	}
	rep := megaShardReport{
		Scenario:       fmt.Sprintf("four-node sharded Strings fleet, GMin, %d Gaussian requests", requests),
		Requests:       requests,
		Finished:       parRes.Finished,
		Events:         parRes.Events,
		VirtualSeconds: parRes.EndTime.Seconds(),
		FFJumps:        parRes.FFJumps,
		FFSkipRatio:    parRes.SkipRatio(),
		Windows:        parStats.Windows,
		SoloRuns:       parStats.SoloRuns,
		Messages:       parStats.Messages,
		LookaheadUS:    int64(parStats.Lookahead),
		Identical:      reflect.DeepEqual(parRes, seqRes) && reflect.DeepEqual(parStats, seqStats),
		Shards:         shards,
		Cores:          runtime.NumCPU(),
		Gomaxprocs:     runtime.GOMAXPROCS(0),
		SeqSeconds:     seqSec,
		ParSeconds:     parSec,
		Speedup:        seqSec / parSec,
		EventsPerSec:   float64(parRes.Events) / parSec,
		NsPerEvent:     parSec * 1e9 / float64(parRes.Events),
	}
	if err := mergeBenchJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: sharded mega %d requests, %d events, %d windows, %d messages; %.2fs at 1 worker, %.2fs at %d (%.2fx, %d cores, identical=%v)\n",
		path, rep.Requests, rep.Events, rep.Windows, rep.Messages,
		rep.SeqSeconds, rep.ParSeconds, shards, rep.Speedup, rep.Cores, rep.Identical)
	if !rep.Identical {
		return fmt.Errorf("sharded mega run diverged between 1 and %d workers — determinism bug", shards)
	}
	return nil
}

// runTraceOnly runs one traced instance of the throughput scenario and
// writes its span stream to path — the quick way to get a chrome://tracing
// file without benchmark timing.
func runTraceOnly(out io.Writer, path string, seed int64) error {
	rec := stringsched.NewTraceRecorder()
	if _, _, err := throughputScenario(seed, rec); err != nil {
		return err
	}
	set := rec.Snapshot()
	if err := writeTrace(path, set); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d spans, %d events, %d decisions\n",
		path, len(set.Spans), len(set.Events), len(set.Decisions))
	return nil
}

// sweepReport is the BENCH_sweep.json schema: the wall-clock of the same
// experiment grid run sequentially and in parallel, plus the determinism
// verdict. Cores/gomaxprocs make the numbers honest — a 1-core container
// cannot show a speedup, and the file says so.
type sweepReport struct {
	Scenario        string  `json:"scenario"`
	Cores           int     `json:"cores"`
	Gomaxprocs      int     `json:"gomaxprocs"`
	ParallelWorkers int     `json:"parallel_workers"`
	SeqSeconds      float64 `json:"sequential_seconds"`
	ParSeconds      float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Identical       bool    `json:"identical_metrics"`
	Simulations     int     `json:"simulations"`
}

// runBenchSweep times the figure grid (Figures 9, 10 and 12 — the bulk of
// -exp all) at one worker and at workers workers, checks the two passes
// produced deeply equal tables, and writes the comparison to path. A
// metrics mismatch is a hard error: the speedup is worthless if the answers
// changed.
func runBenchSweep(out io.Writer, path string, seed int64, requests, pairs, workers int) error {
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	grid := func(w int) ([]*stringsched.Table, float64, int) {
		opt := stringsched.SuiteOptions{Seed: seed, Requests: requests, Workers: w}
		if pairs < 24 {
			opt.Pairs = stringsched.Pairs()[:pairs]
		}
		s := stringsched.NewSuite(opt)
		sw := parallel.StartStopwatch()
		tabs := []*stringsched.Table{s.Fig9(), s.Fig10(), s.Fig12()}
		return tabs, sw.Seconds(), s.Runs
	}
	seqTabs, seqSec, runs := grid(1)
	parTabs, parSec, _ := grid(workers)
	rep := sweepReport{
		Scenario:        fmt.Sprintf("fig9+fig10+fig12, %d requests, %d pairs", requests, pairs),
		Cores:           runtime.NumCPU(),
		Gomaxprocs:      runtime.GOMAXPROCS(0),
		ParallelWorkers: workers,
		SeqSeconds:      seqSec,
		ParSeconds:      parSec,
		Speedup:         seqSec / parSec,
		Identical:       reflect.DeepEqual(seqTabs, parTabs),
		Simulations:     runs,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %.2fs sequential, %.2fs at %d workers (%.2fx, %d cores, identical=%v)\n",
		path, rep.SeqSeconds, rep.ParSeconds, workers, rep.Speedup, rep.Cores, rep.Identical)
	if !rep.Identical {
		return fmt.Errorf("parallel sweep diverged from sequential sweep — determinism bug")
	}
	return nil
}

// clusterReport is the cluster-tier macro-run's slice of BENCH_simcore.json.
// The cluster_* simulated keys are bit-identical at any -parallel/-shards
// setting — runBenchCluster verifies that by running the scenario at one
// worker and at -parallel workers and demanding deeply equal results —
// while the wall-clock keys describe machine-dependent timing.
type clusterReport struct {
	Scenario       string  `json:"cluster_scenario"`
	Policy         string  `json:"cluster_policy"`
	Supernodes     int     `json:"cluster_supernodes"`
	Born           int     `json:"cluster_born"`
	Placed         int     `json:"cluster_placed"`
	Parked         int     `json:"cluster_parked"`
	Rejected       int     `json:"cluster_rejected"`
	Conflicts      int     `json:"cluster_conflicts"`
	Requests       int     `json:"cluster_requests"`
	Finished       int     `json:"cluster_finished"`
	Events         uint64  `json:"cluster_events"`
	VirtualSeconds float64 `json:"cluster_virtual_seconds"`
	P50Seconds     float64 `json:"cluster_p50_s"`
	P99Seconds     float64 `json:"cluster_p99_s"`
	P999Seconds    float64 `json:"cluster_p999_s"`
	AvgWaitSeconds float64 `json:"cluster_avg_admission_wait_s"`
	MaxWaitSeconds float64 `json:"cluster_max_admission_wait_s"`
	Fairness       float64 `json:"cluster_fairness"`
	MeanUtil       float64 `json:"cluster_util_mean"`
	Identical      bool    `json:"cluster_identical"`

	Cores        int     `json:"cluster_cores"`
	Gomaxprocs   int     `json:"cluster_gomaxprocs"`
	Workers      int     `json:"cluster_workers"`
	SeqSeconds   float64 `json:"cluster_seq_seconds"`
	ParSeconds   float64 `json:"cluster_par_seconds"`
	Speedup      float64 `json:"cluster_parallel_speedup"`
	EventsPerSec float64 `json:"cluster_par_events_per_sec"`
}

// clusterFleet is the bench cluster fleet: three two-node supernodes of
// Quadro 2000 + Tesla C2050 pairs (48 admission slots at the default 4
// slots/device) — the same shape the internal/cluster invariance suite pins.
func clusterFleet() []stringsched.ClusterSupernode {
	sn := stringsched.ClusterSupernode{Nodes: []stringsched.NodeConfig{
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
	}}
	return []stringsched.ClusterSupernode{sn, sn, sn}
}

// runBenchCluster runs the cluster-tier macro-scenario for every placement
// policy: open-arrival tenants from spec placed over the three-supernode
// fleet, executed once sequentially and once at `workers` workers with the
// results verified deeply equal, then merged into the bench JSON at path
// (cluster_* keys hold the policy named by primary). A mismatch is a hard
// error after the file is written.
func runBenchCluster(out io.Writer, path, specText, primary string, seed int64, workers, shards int) error {
	spec, err := stringsched.ParseOpenArrivalSpec(specText)
	if err != nil {
		return fmt.Errorf("-cluster-spec: %w", err)
	}
	known := false
	for _, p := range stringsched.ClusterPolicies() {
		known = known || p == primary
	}
	if !known {
		return fmt.Errorf("unknown cluster policy %q (valid: %s)",
			primary, strings.Join(stringsched.ClusterPolicies(), ", "))
	}
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rep clusterReport
	for _, policy := range stringsched.ClusterPolicies() {
		cfg := stringsched.ClusterConfig{
			Seed: seed, Supernodes: clusterFleet(), Policy: policy,
			Arrivals: spec, Shards: shards,
		}
		pass := func(w int) (*stringsched.ClusterResult, float64, error) {
			cfg.Workers = w
			runtime.GC()
			sw := parallel.StartStopwatch()
			r, err := stringsched.RunCluster(cfg)
			return r, sw.Seconds(), err
		}
		seqRes, seqSec, err := pass(1)
		if err != nil {
			return err
		}
		parRes, parSec, err := pass(workers)
		if err != nil {
			return err
		}
		identical := reflect.DeepEqual(seqRes, parRes)
		var util float64
		for _, sn := range parRes.Supernodes {
			util += sn.Utilization
		}
		util /= float64(len(parRes.Supernodes))
		fmt.Fprintf(out, "cluster/%s: born %d placed %d parked %d rejected %d conflicts %d; %d requests, %d events; p50 %v p99 %v p999 %v fairness %.4f; %.2fs at 1 worker, %.2fs at %d (%.2fx, identical=%v)\n",
			policy, parRes.Log.Born, parRes.Log.Placed, parRes.Log.Parked, parRes.Log.Rejected,
			parRes.Log.Conflicts, parRes.Requests, parRes.Events,
			parRes.P50, parRes.P99, parRes.P999, parRes.Fairness,
			seqSec, parSec, workers, seqSec/parSec, identical)
		if !identical {
			return fmt.Errorf("cluster/%s diverged between 1 and %d workers — determinism bug", policy, workers)
		}
		if policy == primary {
			rep = clusterReport{
				Scenario:       fmt.Sprintf("3-supernode fleet, %s placement, %s", primary, spec.String()),
				Policy:         primary,
				Supernodes:     len(parRes.Supernodes),
				Born:           parRes.Log.Born,
				Placed:         parRes.Log.Placed,
				Parked:         parRes.Log.Parked,
				Rejected:       parRes.Log.Rejected,
				Conflicts:      parRes.Log.Conflicts,
				Requests:       parRes.Requests,
				Finished:       parRes.Finished,
				Events:         parRes.Events,
				VirtualSeconds: parRes.EndTime.Seconds(),
				P50Seconds:     parRes.P50.Seconds(),
				P99Seconds:     parRes.P99.Seconds(),
				P999Seconds:    parRes.P999.Seconds(),
				AvgWaitSeconds: parRes.AvgAdmissionWait.Seconds(),
				MaxWaitSeconds: parRes.MaxAdmissionWait.Seconds(),
				Fairness:       parRes.Fairness,
				MeanUtil:       util,
				Identical:      identical,
				Cores:          runtime.NumCPU(),
				Gomaxprocs:     runtime.GOMAXPROCS(0),
				Workers:        workers,
				SeqSeconds:     seqSec,
				ParSeconds:     parSec,
				Speedup:        seqSec / parSec,
				EventsPerSec:   float64(parRes.Events) / parSec,
			}
		}
	}
	if err := mergeBenchJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: cluster_* keys merged (policy %s)\n", path, primary)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses args, validates every flag with an
// exit-1-and-list-the-valid-range failure mode, and dispatches to the
// experiment suites and benchmark modes.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("strings-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	exp := fs.String("exp", "all", "experiment to run (all, table1, fig1, fig2, fig9..fig15, headline, frag, ablations, faults, mega, cluster; faults, mega and cluster are opt-in and excluded from all)")
	requests := fs.Int("requests", 12, "requests per short-job stream")
	lambda := fs.Float64("lambda", 0.6, "mean inter-arrival as a fraction of solo runtime")
	seed := fs.Int64("seed", 1, "simulation seed")
	pairs := fs.Int("pairs", 24, "number of workload pairs (prefix of A..X)")
	width := fs.Int("width", 72, "width of utilization strips")
	parallelN := fs.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	workers := fs.Int("workers", 0, "deprecated alias for -parallel")
	seeds := fs.Int("seeds", 1, "replications per scenario (pooled)")
	csv := fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
	htmlOut := fs.String("html", "", "also write an HTML report with SVG charts to this path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	benchJSON := fs.String("bench-json", "", "benchmark mode: write simulator throughput metrics to this JSON file instead of running experiments")
	benchIters := fs.Int("bench-iters", 20, "iterations of the throughput scenario in -bench-json mode")
	traceOut := fs.String("trace", "", "run the throughput scenario with the span recorder and write the trace here (.jsonl for JSONL, otherwise Chrome trace JSON); with -bench-json, also reports traced overhead")
	benchSweep := fs.String("bench-sweep", "", "sweep-benchmark mode: run the figure grid sequentially and in parallel, verify identical tables, and write the speedup to this JSON file")
	megaRequests := fs.Int("mega-requests", 1_000_000, "requests in the -exp mega macro-run")
	shardsN := fs.Int("shards", 0, "with -exp mega: run the four-node sharded mega scenario at 1 and N barrier workers, verify bit-identical simulated results, and record the speedup (0 = classic single-node mega); with -exp cluster: per-supernode shard setting")
	clusterSpec := fs.String("cluster-spec", "poisson:rate=0.5,horizon=2400s,kind=GA,life=80s,lambda=800ms,bigevery=16,bigslots=2",
		"open-arrival spec for the -exp cluster macro-run (process:key=value,...)")
	clusterPolicy := fs.String("cluster-policy", stringsched.ClusterPolicyLeastLoaded,
		"placement policy whose cluster_* keys land in the bench JSON (least-loaded, frag; both always run)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// Validate numeric ranges before any work: a bad value must fail
	// fast, non-zero, and say what would have been accepted (the same
	// treatment -exp gives unknown experiment names).
	if *shardsN < 0 {
		fmt.Fprintf(errOut, "invalid -shards %d\nvalid range: 0 (classic single-kernel path) or >= 1 (sharded; N sets the barrier worker count)\n", *shardsN)
		return 1
	}
	if *parallelN < 0 {
		fmt.Fprintf(errOut, "invalid -parallel %d\nvalid range: >= 0 (0 = GOMAXPROCS, 1 = sequential, N = N workers)\n", *parallelN)
		return 1
	}
	if *workers < 0 {
		fmt.Fprintf(errOut, "invalid -workers %d\nvalid range: >= 0 (0 = GOMAXPROCS, 1 = sequential, N = N workers; deprecated alias for -parallel)\n", *workers)
		return 1
	}
	if *parallelN == 0 {
		*parallelN = *workers
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errOut, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() int {
		if *memprofile == "" {
			return 0
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(errOut, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(errOut, "memprofile: %v\n", err)
			return 1
		}
		return 0
	}

	if strings.EqualFold(*exp, "mega") {
		// The mega macro-run is a benchmark, not a figure: it merges its
		// mega_* metrics into the bench JSON (BENCH_simcore.json unless
		// -bench-json points elsewhere) and leaves other keys alone.
		path := *benchJSON
		if path == "" {
			path = "BENCH_simcore.json"
		}
		runFn := func() error { return runBenchMega(out, path, *seed, *megaRequests) }
		if *shardsN >= 1 {
			// -shards switches to the sharded fleet variant: same traffic
			// split across four shard kernels, timed at 1 and N workers.
			runFn = func() error { return runBenchMegaSharded(out, path, *seed, *megaRequests, *shardsN) }
		}
		if err := runFn(); err != nil {
			fmt.Fprintf(errOut, "mega: %v\n", err)
			return 1
		}
		return writeMemProfile()
	}
	if strings.EqualFold(*exp, "cluster") {
		// The cluster macro-run is likewise a benchmark: cluster_* keys
		// into the bench JSON, with the worker-invariance check built in.
		path := *benchJSON
		if path == "" {
			path = "BENCH_simcore.json"
		}
		if err := runBenchCluster(out, path, *clusterSpec, *clusterPolicy, *seed, *parallelN, *shardsN); err != nil {
			fmt.Fprintf(errOut, "cluster: %v\n", err)
			return 1
		}
		return writeMemProfile()
	}
	if *benchJSON != "" {
		if err := runBenchJSON(out, *benchJSON, *seed, *benchIters, *traceOut); err != nil {
			fmt.Fprintf(errOut, "bench: %v\n", err)
			return 1
		}
		return writeMemProfile()
	}
	if *traceOut != "" {
		if err := runTraceOnly(out, *traceOut, *seed); err != nil {
			fmt.Fprintf(errOut, "trace: %v\n", err)
			return 1
		}
		return writeMemProfile()
	}
	if *benchSweep != "" {
		if err := runBenchSweep(out, *benchSweep, *seed, *requests, *pairs, *parallelN); err != nil {
			fmt.Fprintf(errOut, "bench-sweep: %v\n", err)
			return 1
		}
		return writeMemProfile()
	}

	opt := stringsched.SuiteOptions{
		Seed:         *seed,
		Requests:     *requests,
		LambdaFactor: *lambda,
		Workers:      *parallelN,
		Seeds:        *seeds,
	}
	if *pairs < 24 {
		opt.Pairs = stringsched.Pairs()[:*pairs]
	}
	suite := stringsched.NewSuite(opt)

	var page *stringsched.ReportPage
	if *htmlOut != "" {
		page = stringsched.NewReportPage("Strings (SC'14) reproduction — measured figures")
	}
	render := func(t *stringsched.Table) {
		if *csv {
			fmt.Fprintln(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.Format())
		}
		if page != nil {
			page.AddTable(t)
		}
	}
	runners := []struct {
		name string
		// extra experiments run only when named explicitly, never under
		// -exp all (they change cluster configuration — fault injection —
		// rather than reproduce a paper figure).
		extra bool
		fn    func()
	}{
		{name: "table1", fn: func() { render(suite.TableI()) }},
		{name: "fig1", fn: func() { render(suite.Fig1()) }},
		{name: "fig2", fn: func() {
			o := suite.Fig2().Format(*width)
			fmt.Fprintln(out, o)
			if page != nil {
				page.AddPre("Fig 2: sequential vs concurrent Monte Carlo", o)
			}
		}},
		{name: "fig9", fn: func() { render(suite.Fig9()) }},
		{name: "fig10", fn: func() { render(suite.Fig10()) }},
		{name: "fig11", fn: func() { render(suite.Fig11()) }},
		{name: "fig12", fn: func() { render(suite.Fig12()) }},
		{name: "fig13", fn: func() { render(suite.Fig13()) }},
		{name: "fig14", fn: func() { render(suite.Fig14()) }},
		{name: "fig15", fn: func() { render(suite.Fig15()) }},
		{name: "headline", fn: func() { render(suite.Headline()) }},
		{name: "frag", fn: func() { render(suite.FragPacking()) }},
		{name: "ablations", fn: func() {
			render(suite.AblationContextSwitch())
			render(suite.AblationCopyEngines())
			render(suite.AblationRemoteBandwidth())
			render(suite.AblationLASDecay())
			render(suite.AblationAccountingLag())
			render(suite.AblationArbiter())
			render(suite.AblationAppStyle())
		}},
		{name: "faults", extra: true, fn: func() { render(suite.Faults()) }},
	}

	// Validate -exp before running anything: an unknown name must fail
	// fast, non-zero, and tell the user what would have been accepted.
	want := strings.ToLower(*exp)
	known := want == "all"
	names := make([]string, 0, len(runners)+3)
	names = append(names, "all")
	for _, r := range runners {
		names = append(names, r.name)
		if want == r.name {
			known = true
		}
	}
	names = append(names, "mega", "cluster") // handled above, before benchmark modes
	if !known {
		fmt.Fprintf(errOut, "unknown experiment %q\nvalid experiments: %s\n(faults is opt-in: it is excluded from -exp all and must be named explicitly)\n",
			*exp, strings.Join(names, ", "))
		return 1
	}

	sw := parallel.StartStopwatch()
	for _, r := range runners {
		if (want == "all" && !r.extra) || want == r.name {
			r.fn()
		}
	}
	if page != nil {
		if err := page.WriteFile(*htmlOut); err != nil {
			fmt.Fprintf(errOut, "writing %s: %v\n", *htmlOut, err)
			return 1
		}
		fmt.Fprintf(out, "HTML report written to %s\n", *htmlOut)
	}
	fmt.Fprintf(out, "(%d simulations, %.1fs wall)\n", suite.Runs, sw.Seconds())
	return writeMemProfile()
}
