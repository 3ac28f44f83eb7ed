package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesUnitsAndDirections(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q uses characters other than letters, digits, _, . and -", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q is defined twice", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q has no valid unit (%q)", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q has no direction (%q)", d.Name, d.Better)
			}
		}
	}
	var setup float64
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("end-to-end metric %q has bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setup {
			t.Errorf("%q's bound %v exceeds setup_s's %v; setup_s must have the largest", d.Name, d.Bound, setup)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestMegaCheckFailsOnUnfinishedRequest(t *testing.T) {
	w := &megaStream{}
	good := outcome{Requests: 100, Finished: 100}
	if err := w.check(good); err != nil {
		t.Fatalf("clean outcome rejected: %v", err)
	}
	bad := good
	bad.Finished--
	if w.check(bad) == nil {
		t.Error("one unfinished request passed the check")
	}
	bad = good
	bad.AppErrors = 1
	if w.check(bad) == nil {
		t.Error("an application error passed the check")
	}
}

func TestClusterCheckFailsOnLostTenantOrRequest(t *testing.T) {
	w := &clusterTFS{}
	good := outcome{Born: 10, Placed: 9, Rejected: 1, Requests: 50, Finished: 50}
	if err := w.check(good); err != nil {
		t.Fatalf("clean outcome rejected: %v", err)
	}
	bad := good
	bad.Rejected = 0
	if w.check(bad) == nil {
		t.Error("placed + rejected != born passed the check")
	}
	bad = good
	bad.Finished--
	if w.check(bad) == nil {
		t.Error("one unfinished request passed the check")
	}
}

func TestPaperCheckFailsOnMissingClaim(t *testing.T) {
	w := &paperFigures{}
	good := outcome{Claims: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	if err := w.check(good); err != nil {
		t.Fatalf("clean outcome rejected: %v", err)
	}
	for _, v := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := good
		bad.Claims = append([]float64(nil), good.Claims...)
		bad.Claims[4] = v
		if w.check(bad) == nil {
			t.Errorf("claim %v passed the check", v)
		}
	}
	bad := good
	bad.FailedFigures = 1
	if w.check(bad) == nil {
		t.Error("a failed figure passed the check")
	}
}

func TestRunsDifferingInP99Disagree(t *testing.T) {
	a := outcome{Requests: 10, Finished: 10, P50: 2_000_000, P99: 2_050_000, Claims: []float64{1}}
	b := a
	if err := sameOutcome(a, b); err != nil {
		t.Fatalf("identical outcomes disagree: %v", err)
	}
	b.P99++
	err := sameOutcome(a, b)
	if err == nil || !strings.Contains(err.Error(), "P99") {
		t.Errorf("outcomes differing in P99: got %v, want a disagreement naming P99", err)
	}
}

func TestRecordsAcrossRuns(t *testing.T) {
	b := &bench{name: "mega-stream", seed: 3, state: t.TempDir()}
	o := outcome{Requests: 10, Finished: 10, P99: 7}
	if err := b.matchRecord("", o); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := b.matchRecord("", o); err != nil {
		t.Fatalf("same outcome again: %v", err)
	}
	o.P99++
	if err := b.matchRecord("", o); err == nil {
		t.Error("a later run with a different P99 matched the record")
	}
}

func TestRecordsDirIsPerBinary(t *testing.T) {
	dir, err := recordsDir()
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := filepath.Dir(dir), filepath.Join(filepath.Dir(exe), "records"); got != want {
		t.Errorf("records directory %s is not under %s", dir, want)
	}
	if again, err := recordsDir(); err != nil || again != dir {
		t.Errorf("second call gave %q, %v; want %q", again, err, dir)
	}
}

func TestFillMetrics(t *testing.T) {
	vals := map[string]float64{"run_cpu_s": 1, "setup_s": 0.1, "peak_heap_mb": 20}
	got, err := fillMetrics(endToEnd, vals)
	if err != nil {
		t.Fatal(err)
	}
	if got["setup_s"] != (metricValue{Value: 0.1, Unit: "s"}) {
		t.Errorf("setup_s = %+v", got["setup_s"])
	}
	delete(vals, "setup_s")
	if _, err := fillMetrics(endToEnd, vals); err == nil {
		t.Error("a missing metric was accepted")
	}
	vals["setup_s"], vals["extra"] = 0.1, 1
	if _, err := fillMetrics(endToEnd, vals); err == nil {
		t.Error("an uncatalogued metric was accepted")
	}
	delete(vals, "extra")
	vals["run_cpu_s"] = math.NaN()
	if _, err := fillMetrics(endToEnd, vals); err == nil {
		t.Error("a NaN metric was accepted")
	}
}

func TestLeafLayer(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/gpu.(*Device).driver"}, "gpu"},
		{[]string{"repro/internal/sim/shard.(*Coordinator).window"}, "shard"},
		{[]string{"repro/internal/sim.(*Kernel).RunUntil"}, "sim"},
		{[]string{"repro/internal/metrics.Percentile"}, ""},
		{[]string{"sort.Slice", "repro/internal/gpu.x"}, ""},
		{[]string{"runtime.gogo", "runtime.coroswitch_m", "runtime.coroswitch", "iter.Pull.func1", "repro/internal/sim.(*Proc).park"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/gpu.x"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "repro/internal/gpu.x"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := leafLayer(c.frames); got != c.want {
			t.Errorf("leafLayer(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestSelfSharesSumTo100(t *testing.T) {
	stacks := []profStack{
		{[]string{"repro/internal/sim.a"}, 5},
		{[]string{"repro/internal/gpu.b"}, 3},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 1},
		{[]string{"main.x"}, 1},
	}
	shares := selfShares(stacks)
	var sum float64
	for name, v := range shares {
		if !strings.HasSuffix(name, "self_pct") {
			t.Errorf("share %q is not a self_pct metric", name)
		}
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if shares["sim.self_pct"] != 50 || shares["unattributed.self_pct"] != 10 || shares["runtime.gc_self_pct"] != 10 {
		t.Errorf("shares %v", shares)
	}
	if len(shares) != len(selfPctLayers)+2 {
		t.Errorf("%d shares, want one per layer plus runtime.gc and unattributed", len(shares))
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burning int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".burnCPU") {
				burning += s.count
				break
			}
		}
	}
	if total == 0 || burning*2 < total {
		t.Errorf("%d of %d samples in burnCPU, want most", burning, total)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mega-stream", "--trace", "2"},
		{"--workload", "mega-stream", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
