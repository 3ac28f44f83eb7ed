// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed for a given number of seconds, checks the
// simulated outputs, and prints one JSON line of metrics: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics in a traced run
// (--trace 1). NOTES.md explains the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mega-stream --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/stringsched"
)

// Workload sizes. A repetition is one set-up plus one run; a run repeats
// them until --seconds have passed and reports medians.
const (
	megaRequests          = 25000 // ≥ 10,000, so p999 has ten samples beyond it
	megaTracedRequests    = 6000  // the recorder holds ~19 KB per request
	clusterRequests       = 20000
	clusterTracedRequests = 3000 // the recorder holds ~55 KB per request
)

var workloadNames = []string{"mega-stream", "cluster-tfs", "paper-figures"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics in a traced, profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	b, err := newBench(*name, *seed)
	if err == nil {
		b.state, err = recordsDir()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var res result
	if *traced == 1 {
		res, err = b.perLayer(*seconds, stderr)
	} else {
		res, err = b.endToEnd(*seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := encodeResult(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload at one seed.
type bench struct {
	name  string
	seed  int64
	state string // directory of this binary's per-seed outcome records
	w     workload

	// setupSamples is how many set-ups are timed for setup_s. The host's
	// speed changes from one millisecond to the next, so the samples span
	// a third of a second or more; mega-stream takes fewer because every
	// NewCluster leaves goroutines behind (see NOTES.md, Defects), which
	// later collections would have to scan.
	setupSamples int

	mega    *megaStream
	cluster *clusterTFS
	paper   *paperFigures
}

func newBench(name string, seed int64) (*bench, error) {
	b := &bench{name: name, seed: seed}
	switch name {
	case "mega-stream":
		b.mega = &megaStream{seed: seed, requests: megaRequests}
		b.w = b.mega
		b.setupSamples = 1000 // ~35 µs each
	case "cluster-tfs":
		n, err := clusterTenants(seed, clusterRequests)
		if err != nil {
			return nil, err
		}
		b.cluster = &clusterTFS{seed: seed, tenants: n}
		b.w = b.cluster
		b.setupSamples = 10000 // ~35 µs each
	case "paper-figures":
		b.paper = &paperFigures{seed: seed, figTimes: map[string][]float64{}}
		b.w = b.paper
		b.setupSamples = 100000 // ~2 µs each
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
	}
	return b, nil
}

// reps is what a run of repetitions measured.
type reps struct {
	setupS    []float64
	runS      []float64 // host wall seconds of each repetition's run
	runCPUS   []float64 // host CPU seconds of the same, over all threads
	first     outcome
	attempted int
	failed    int
	checkErr  error   // the first failed output check
	peakMB    float64 // peak resident set through the first repetition
	mallocs   uint64  // heap allocations over all repetitions
	allocB    uint64  // heap bytes allocated over all repetitions

	// What the repetitions left behind once finished: goroutines of
	// simulated processes still parked, and live heap they keep reachable.
	abandonedProcs int
	retainedMB     float64
}

// repeat runs set-up-and-run repetitions until seconds have passed (at
// least two), checking every repetition's outputs and that all repetitions
// agree. Between the first and the second it times b.setupSamples set-ups:
// after the first, so that the peak resident set through it does not
// include them, and always after exactly one, so that they find the same
// heap however many repetitions the host's speed allows. What the
// repetitions leave behind is measured over the second and later ones.
func (b *bench) repeat(seconds float64) (reps, error) {
	var m reps
	begin := time.Now()
	if err := b.repetition(&m); err != nil || m.checkErr != nil {
		return m, err
	}
	runtime.GC() // the set-ups' own collections then start from the same heap
	for i := 0; i < b.setupSamples; i++ {
		start := time.Now()
		if _, err := b.w.setUp(); err != nil {
			return m, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	goroutines, heapMB := runtime.NumGoroutine(), liveHeapMB()
	for len(m.runS) < 2 || time.Since(begin).Seconds() < seconds {
		if err := b.repetition(&m); err != nil {
			return m, err
		}
		if m.checkErr != nil {
			break
		}
	}
	n := float64(len(m.runS) - 1)
	m.abandonedProcs = int(math.Round(float64(runtime.NumGoroutine()-goroutines) / n))
	m.retainedMB = (liveHeapMB() - heapMB) / n
	return m, nil
}

// repetition sets up and runs the workload once and checks its outputs.
// The run starts after a full garbage collection, so it does not pay for
// its predecessor's garbage.
func (b *bench) repetition(m *reps) error {
	u, err := b.w.setUp()
	if err != nil {
		return err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu := time.Now(), cpuSeconds()
	o, err := u()
	m.runS = append(m.runS, time.Since(start).Seconds())
	m.runCPUS = append(m.runCPUS, cpuSeconds()-cpu)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.allocB += after.TotalAlloc - before.TotalAlloc
	m.attempted += b.w.attempted(o)
	m.failed += b.w.failed(o)
	if len(m.runS) == 1 {
		m.peakMB = peakRSSMB()
		m.first = o
		m.checkErr = b.w.check(o)
		if m.checkErr == nil {
			m.checkErr = b.matchRecord("", o)
		}
	} else if err := sameOutcome(m.first, o); err != nil {
		m.checkErr = err
	}
	return nil
}

// endToEnd is the untraced run.
func (b *bench) endToEnd(seconds float64, stderr io.Writer) (result, error) {
	m, err := b.repeat(seconds)
	if err != nil {
		return result{}, err
	}
	b.summarize(stderr, m)
	vals := map[string]float64{
		"run_cpu_s":    slices.Min(m.runCPUS),
		"setup_s":      median(m.setupS),
		"peak_heap_mb": m.peakMB,
	}
	return b.finish(m, endToEnd, vals)
}

// perLayer is the traced run: repetitions under the CPU profiler, then the
// traced pass and the layer entry-point timings.
func (b *bench) perLayer(seconds float64, stderr io.Writer) (result, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	m, err := b.repeat(seconds / 2)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	b.summarize(stderr, m)
	stacks, err := decodeProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	vals := selfShares(stacks)
	b.outcomeMetrics(vals, m)
	if m.checkErr == nil {
		if err := b.layerMetrics(vals); err != nil {
			return result{}, err
		}
	}
	return b.finish(m, perLayer, vals)
}

// finish assembles the result line from the measured values.
func (b *bench) finish(m reps, defs []metricDef, vals map[string]float64) (result, error) {
	res := result{Correct: m.checkErr == nil, Attempted: m.attempted, Failed: m.failed}
	if m.checkErr != nil {
		// The values of a failed run are not comparable; report the
		// failure with zeros rather than a partial metric set.
		vals = map[string]float64{}
		for _, d := range defs {
			vals[d.Name] = 0
		}
	}
	metrics, err := fillMetrics(defs, vals)
	if err != nil {
		return result{}, err
	}
	res.Metrics = metrics
	return res, nil
}

// outcomeMetrics fills the simulated-outcome and per-repetition metrics.
func (b *bench) outcomeMetrics(vals map[string]float64, m reps) {
	o := m.first
	runS := slices.Min(m.runS)
	req := float64(o.Requests)
	vals["sim_requests"] = float64(o.Finished)
	vals["sim_p50_s"] = secs(o.P50)
	vals["sim_p99_s"] = secs(o.P99)
	vals["sim_p999_s"] = 0
	if o.Finished >= 10000 {
		vals["sim_p999_s"] = secs(o.P999)
	}
	vals["sim_admission_wait_s"] = secs(o.AdmissionWait)
	vals["sim_fairness"] = o.Fairness
	vals["paper_err_pct"] = o.PaperErrPct
	vals["failed_frac"] = ratio(float64(m.failed), float64(m.attempted))

	vals["sim.events_per_request"] = ratio(float64(o.Events), req)
	vals["sim.ns_per_event"] = ratio(runS*1e9, float64(o.Events))
	vals["sim.ns_per_request"] = ratio(runS*1e9, req)
	vals["sim.wall_s_per_virtual_s"] = ratio(runS, secs(o.EndTime))
	vals["sim.ff_jumps_per_request"] = ratio(float64(o.FFJumps), req)
	vals["sim.ff_skip_ratio"] = ratio(float64(o.FFSkipped), float64(o.EndTime))
	n := float64(len(m.runS))
	vals["runtime.allocs_per_request"] = ratio(float64(m.mallocs), n*req)
	vals["runtime.bytes_per_request"] = ratio(float64(m.allocB), n*req)

	vals["sim.abandoned_procs_per_run"] = float64(m.abandonedProcs)
	vals["runtime.retained_mb_per_run"] = m.retainedMB

	vals["cluster.conflict_ratio"] = ratio(float64(o.Conflicts), float64(o.Placed+o.Conflicts))
	vals["cluster.parked_frac"] = ratio(float64(o.Parked), float64(o.Born))
	vals["cluster.peak_parked"] = float64(o.PeakParked)
	vals["cluster.refreshes"] = float64(o.Refreshes)

	vals["experiments.simulations"] = float64(o.Simulations)
	for _, f := range figureNames {
		vals["experiments."+f+"_s"] = 0
		if b.paper != nil {
			vals["experiments."+f+"_s"] = median(b.paper.figTimes[f])
		}
	}
}

// layerMetrics runs the traced pass and the layer entry-point timings.
func (b *bench) layerMetrics(vals map[string]float64) error {
	var tr tracedRun
	var err error
	switch {
	case b.mega != nil:
		tr, err = megaTraced(b.seed, megaTracedRequests)
	case b.cluster != nil:
		var n int
		if n, err = clusterTenants(b.seed, clusterTracedRequests); err == nil {
			tr, err = clusterTraced(b.seed, n)
		}
	}
	if err != nil {
		return err
	}
	tc := tr.counts
	if tc.CallMix != nil {
		if err := b.matchRecord("traced", tc); err != nil {
			return err
		}
	}
	req := float64(tc.Requests)
	perReq := func(x float64) float64 { return ratio(x, req) }
	vals["gpu.ops_per_request"] = perReq(float64(tc.Ops))
	vals["gpu.op_s_per_request"] = perReq(float64(tc.OpUS) / 1e6)
	vals["gpu.switches_per_request"] = perReq(float64(tc.Switches))
	vals["devsched.wait_s_per_request"] = perReq(float64(tc.WaitUS) / 1e6)
	vals["devsched.wakes_per_request"] = perReq(float64(tc.Wakes))
	vals["packer.execs_per_request"] = perReq(float64(tc.Execs))
	vals["packer.exec_s_per_request"] = perReq(float64(tc.ExecUS) / 1e6)
	vals["interpose.calls_per_request"] = perReq(float64(tc.Calls))
	vals["interpose.select_s_per_request"] = perReq(float64(tc.SelectUS) / 1e6)
	vals["balancer.spill_ratio"] = ratio(float64(tc.Spilled), float64(tc.Decisions))
	vals["trace.spans_per_request"] = perReq(float64(tc.Spans))
	vals["trace.peak_heap_mb"] = tr.heapMB
	vals["trace.overhead_pct"] = 0
	if tr.untracedS > 0 {
		vals["trace.overhead_pct"] = (tr.tracedS/tr.untracedS - 1) * 100
	}
	if vals["rpcproto.roundtrip_ns"], err = roundtripNs(tc.CallMix); err != nil {
		return err
	}

	vals["sim.handoff_ns"] = handoffNs()
	vals["devsched.pick_ns"], vals["packer.pmt_release_ns"], vals["workload.births_ms"] = 0, 0, 0
	var cfg stringsched.Config
	switch {
	case b.mega != nil:
		cfg = megaConfig(1, nil)
	case b.cluster != nil:
		cfg = stringsched.Config{
			Seed: 1, Nodes: clusterFleet()[0].Nodes, Mode: stringsched.ModeStrings,
			Balance: "GMin", DevPolicy: "TFS", Shards: 1,
		}
		live := int(math.Max(1, math.Round(tc.LiveEntries)))
		vals["devsched.pick_ns"] = pickNs(live, min(live, 4))
		vals["packer.pmt_release_ns"] = pmtReleaseNs(live)
		if vals["workload.births_ms"], err = birthsMs(b.seed, b.cluster.tenants); err != nil {
			return err
		}
	case b.paper != nil:
		// The paper's emulated 4-GPU supernode under MBF.
		cfg = stringsched.Config{
			Seed: 1, Mode: stringsched.ModeStrings, Balance: "MBF",
			Nodes: []stringsched.NodeConfig{
				{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
				{Devices: []stringsched.DeviceSpec{stringsched.Quadro4000, stringsched.TeslaC2070}},
			},
		}
	}
	if vals["balancer.select_ns"], err = selectNs(cfg); err != nil {
		return err
	}
	if vals["core.new_ms"], err = newClusterMs(cfg); err != nil {
		return err
	}
	return nil
}

// summarize prints the run's simulated outcome to standard error.
func (b *bench) summarize(stderr io.Writer, m reps) {
	o := m.first
	fmt.Fprintf(stderr, "%s seed %d: %d repetitions, run %.3fs wall, %.3fs CPU (fastest), set-up %.6fs (median of %d)\n",
		b.name, b.seed, len(m.runS), slices.Min(m.runS), slices.Min(m.runCPUS), median(m.setupS), len(m.setupS))
	switch {
	case b.paper != nil:
		fmt.Fprintf(stderr, "  %d simulations, paper error %.2f%%, claims %v\n",
			o.Simulations, o.PaperErrPct, o.Claims)
	default:
		fmt.Fprintf(stderr, "  %d/%d requests, %d events, virtual %.1fs, p50 %.4fs p99 %.4fs p999 %.4fs, fairness %.4f\n",
			o.Finished, o.Requests, o.Events, secs(o.EndTime), secs(o.P50), secs(o.P99), secs(o.P999), o.Fairness)
		if b.cluster != nil {
			fmt.Fprintf(stderr, "  tenants born %d placed %d parked %d rejected %d, conflicts %d, mean admission wait %.3fs\n",
				o.Born, o.Placed, o.Parked, o.Rejected, o.Conflicts, secs(o.AdmissionWait))
		}
	}
	fmt.Fprintf(stderr, "  run seconds per repetition: wall %.3f, CPU %.3f\n", m.runS, m.runCPUS)
	if m.checkErr != nil {
		fmt.Fprintln(stderr, "  CHECK FAILED:", m.checkErr)
	}
}

// recordsDir is the directory of the per-seed outcome records of this
// binary: beside the executable, under a digest of it, so that only runs of
// the same program have to agree and a changed program starts afresh.
func recordsDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("records: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("records: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("records: %w", err)
	}
	return filepath.Join(filepath.Dir(exe), "records", hex.EncodeToString(h.Sum(nil))[:16]), nil
}

// matchRecord compares v with the record an earlier run of this binary, at
// this workload and seed, left in the records directory, or leaves the
// record if none exists: simulated outputs must repeat exactly across
// processes.
func (b *bench) matchRecord(kind string, v any) error {
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	file := fmt.Sprintf("%s-seed%d", b.name, b.seed)
	if kind != "" {
		file += "-" + kind
	}
	path := filepath.Join(b.state, file+".json")
	want, err := os.ReadFile(path)
	if err == nil {
		return sameRecord(want, got)
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.MkdirAll(b.state, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, got, 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// cpuSeconds is the CPU time the process has used, user and system, over
// all its threads. A guest kernel that accounts steal time leaves out the
// time the hypervisor gave the virtual CPU to another guest.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func secs(t stringsched.Time) float64 { return float64(t) / float64(stringsched.Second) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
