package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/stringsched"
)

// outcome is what one unit of a workload simulated. Every field is exact
// for a given seed, so every unit of one seed must produce the same outcome,
// in one process and across processes.
type outcome struct {
	Requests  int // requests submitted
	Finished  int // requests completed
	AppErrors int // requests that ended in an application error
	Events    uint64
	EndTime   stringsched.Time // virtual time of the last event

	FFJumps   uint64
	FFSkipped stringsched.Time
	Switches  int // device context switches (mega-stream only)

	// Arrival-to-completion latency of every finished request, nearest
	// rank.
	P50, P99, P999 stringsched.Time
	Fairness       float64 // Jain index over per-tenant service ÷ demand

	// Cluster tier.
	Born, Placed, Rejected, Parked int
	PeakParked, Conflicts          int
	Refreshes                      int
	AdmissionWait                  stringsched.Time // mean park wait of parked tenants

	// Paper figures.
	Simulations   int       // Suite.Runs
	Claims        []float64 // Headline's nine measured values
	PaperErrPct   float64   // mean |Meas/Paper − 1| × 100 over the claims
	FailedFigures int
}

// unit runs one already set-up repetition of a workload.
type unit func() (outcome, error)

// workload is one benchmark scenario at a fixed seed.
type workload interface {
	// setUp makes the public set-up calls of one repetition and returns
	// the repetition, ready to run.
	setUp() (unit, error)
	// attempted counts the operations one repetition attempts, and failed
	// those of them that failed or were refused.
	attempted(o outcome) int
	failed(o outcome) int
	// check verifies one repetition's outputs.
	check(o outcome) error
}

// ---------------------------------------------------------------------------
// mega-stream: RunMega's scenario, built through the public constructor so
// set-up and run are timed apart.

// megaStream is one two-GPU Strings node under GMin with device policy
// none, serving one Poisson stream of Gaussian requests at LambdaFactor 1.5.
type megaStream struct {
	seed     int64
	requests int
	rec      *trace.Recorder // nil: untraced

	// The last traced repetition's cluster and result, for the traced pass.
	cluster *stringsched.Cluster
	last    *stringsched.RunResult
}

func megaConfig(seed int64, rec *trace.Recorder) stringsched.Config {
	return stringsched.Config{
		Seed: seed,
		Nodes: []stringsched.NodeConfig{{Devices: []stringsched.DeviceSpec{
			stringsched.Quadro2000, stringsched.TeslaC2050,
		}}},
		Mode:      stringsched.ModeStrings,
		Balance:   "GMin",
		DevPolicy: "none",
		Recorder:  rec,
	}
}

func (w *megaStream) setUp() (unit, error) {
	w.cluster, w.last = nil, nil // let the previous repetition be collected
	c, err := stringsched.NewCluster(megaConfig(w.seed, w.rec))
	if err != nil {
		return nil, fmt.Errorf("mega-stream: %w", err)
	}
	return func() (outcome, error) {
		r, err := c.Run([]stringsched.StreamSpec{{
			Kind: stringsched.Gaussian, Count: w.requests, LambdaFactor: 1.5,
			Node: 0, Tenant: 1, Weight: 1,
		}})
		if err != nil {
			return outcome{}, fmt.Errorf("mega-stream: %w", err)
		}
		if w.rec != nil {
			w.cluster, w.last = c, r
		}
		o := outcome{
			Requests:  w.requests,
			Finished:  r.Finished,
			AppErrors: len(r.Errors),
			Events:    c.Dispatched(),
			EndTime:   r.EndTime,
		}
		o.FFJumps, o.FFSkipped = c.FastForwards()
		for _, d := range c.Devices() {
			o.Switches += d.Stats().Switches
		}
		o.P50, o.P99, o.P999 = latencyPercentiles(r.Requests)
		demand := map[int64]float64{1: float64(w.requests)}
		o.Fairness = serviceFairness([]*stringsched.RunResult{r}, demand)
		return o, nil
	}, nil
}

func (w *megaStream) attempted(o outcome) int { return o.Requests }
func (w *megaStream) failed(o outcome) int    { return o.Requests - o.Finished + o.AppErrors }

func (w *megaStream) check(o outcome) error {
	if o.Finished != o.Requests || o.AppErrors != 0 {
		return fmt.Errorf("mega-stream: %d of %d requests finished, %d app errors",
			o.Finished, o.Requests, o.AppErrors)
	}
	return nil
}

// ---------------------------------------------------------------------------
// cluster-tfs: the open-arrival cluster tier.

// clusterSpecShape is the default cluster spec's shape (rate, lifetimes,
// request gaps, big tenants). The horizon only has to outlast the
// population: the tenants= cap, sized per seed by clusterTenants, ends it.
const clusterSpecShape = "poisson:rate=0.5,horizon=1000000s,kind=GA,life=80s,lambda=800ms,bigevery=16,bigslots=2"

// clusterSpecText caps the population at tenants.
func clusterSpecText(tenants int) string {
	return fmt.Sprintf("%s,tenants=%d", clusterSpecShape, tenants)
}

// clusterBirths draws the population exactly as the cluster tier does for
// seed: the arrival stream is seeded from the cluster seed folded with the
// "cluster/arrivals" key.
func clusterBirths(spec stringsched.OpenArrivalSpec, seed int64) ([]stringsched.TenantBirth, error) {
	return spec.Births(rand.New(rand.NewSource(sweep.KeySeed(seed, "cluster/arrivals"))))
}

// clusterTenants returns the smallest population whose requests reach
// target. Tenant lifetimes are heavy-tailed, so a fixed horizon or a fixed
// tenant count would let the work of one run differ by half from seed to
// seed; sizing by request count keeps host time comparable across seeds.
func clusterTenants(seed int64, target int) (int, error) {
	for n := 1; n <= 100*target; n++ {
		spec, err := stringsched.ParseOpenArrivalSpec(clusterSpecText(n))
		if err != nil {
			return 0, err
		}
		births, err := clusterBirths(spec, seed)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, b := range births {
			total += b.Requests
		}
		if total >= target {
			return n, nil
		}
	}
	return 0, fmt.Errorf("cluster-tfs: no population reaches %d requests", target)
}

// clusterFleet is three supernodes of two Quadro 2000 + Tesla C2050 nodes.
func clusterFleet() []stringsched.ClusterSupernode {
	sn := stringsched.ClusterSupernode{Nodes: []stringsched.NodeConfig{
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
		{Devices: []stringsched.DeviceSpec{stringsched.Quadro2000, stringsched.TeslaC2050}},
	}}
	return []stringsched.ClusterSupernode{sn, sn, sn}
}

// clusterTFS places open-arrival GA tenants least-loaded over the fleet and
// runs every supernode under TFS, with the sharded composition (Shards=1:
// coordinator on, one barrier worker) and the supernodes one at a time.
type clusterTFS struct {
	seed    int64
	tenants int
}

func clusterConfig(seed int64, spec stringsched.OpenArrivalSpec) stringsched.ClusterConfig {
	return stringsched.ClusterConfig{
		Seed:       seed,
		Supernodes: clusterFleet(),
		Policy:     stringsched.ClusterPolicyLeastLoaded,
		Arrivals:   spec,
		DevPolicy:  "TFS",
		Workers:    1,
		Shards:     1,
	}
}

func (w *clusterTFS) setUp() (unit, error) {
	spec, err := stringsched.ParseOpenArrivalSpec(clusterSpecText(w.tenants))
	if err != nil {
		return nil, fmt.Errorf("cluster-tfs: %w", err)
	}
	if _, err := clusterBirths(spec, w.seed); err != nil {
		return nil, fmt.Errorf("cluster-tfs: %w", err)
	}
	return func() (outcome, error) {
		r, err := stringsched.RunCluster(clusterConfig(w.seed, spec))
		if err != nil {
			return outcome{}, fmt.Errorf("cluster-tfs: %w", err)
		}
		return clusterOutcome(r), nil
	}, nil
}

func clusterOutcome(r *stringsched.ClusterResult) outcome {
	return outcome{
		Requests:      r.Requests,
		Finished:      r.Finished,
		Events:        r.Events,
		EndTime:       r.EndTime,
		P50:           r.P50,
		P99:           r.P99,
		P999:          r.P999,
		Fairness:      r.Fairness,
		Born:          r.Log.Born,
		Placed:        r.Log.Placed,
		Rejected:      r.Log.Rejected,
		Parked:        r.Log.Parked,
		PeakParked:    r.Log.PeakParked,
		Conflicts:     r.Log.Conflicts,
		Refreshes:     r.Log.Refreshes,
		AdmissionWait: r.AvgAdmissionWait,
	}
}

func (w *clusterTFS) attempted(o outcome) int { return o.Born + o.Requests }
func (w *clusterTFS) failed(o outcome) int    { return o.Rejected + o.Requests - o.Finished }

func (w *clusterTFS) check(o outcome) error {
	if o.Placed+o.Rejected != o.Born {
		return fmt.Errorf("cluster-tfs: placed %d + rejected %d != born %d", o.Placed, o.Rejected, o.Born)
	}
	if o.Finished != o.Requests {
		return fmt.Errorf("cluster-tfs: %d of %d requests finished", o.Finished, o.Requests)
	}
	return nil
}

// ---------------------------------------------------------------------------
// paper-figures: Figures 9–15 and the headline claims.

// paperFigures regenerates Figures 9–15 and then the headline claims on a
// fresh suite per repetition, so memoized cells never leak between
// repetitions.
type paperFigures struct {
	seed     int64
	figTimes map[string][]float64 // host seconds per step, one entry per repetition
}

// headlineClaims is the number of rows of Suite.Headline.
const headlineClaims = 9

func (w *paperFigures) setUp() (unit, error) {
	s := stringsched.NewSuite(stringsched.SuiteOptions{
		Seed: w.seed, Requests: 12, Workers: 1,
	})
	return func() (outcome, error) {
		steps := []func() *stringsched.Table{
			s.Fig9, s.Fig10, s.Fig11, s.Fig12, s.Fig13, s.Fig14, s.Fig15, s.Headline,
		}
		var o outcome
		var headline *stringsched.Table
		for i, step := range steps {
			start := time.Now()
			tab, err := runFigure(step)
			w.figTimes[figureNames[i]] = append(w.figTimes[figureNames[i]], time.Since(start).Seconds())
			if err != nil {
				o.FailedFigures++
				continue
			}
			headline = tab
		}
		o.Simulations = s.Runs
		if o.FailedFigures == 0 {
			o.Claims = append([]float64(nil), headline.Row("Measured")...)
			o.PaperErrPct = paperError(headline.Row("Meas/Paper"))
		}
		return o, nil
	}, nil
}

// runFigure runs one figure step, turning the suite's panic on a failed
// scenario into an error.
func runFigure(step func() *stringsched.Table) (tab *stringsched.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("paper-figures: %v", p)
		}
	}()
	return step(), nil
}

// paperError is the mean of |ratio − 1| × 100.
func paperError(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var sum float64
	for _, r := range ratios {
		sum += math.Abs(r-1) * 100
	}
	return sum / float64(len(ratios))
}

func (w *paperFigures) attempted(o outcome) int { return len(figureNames) }
func (w *paperFigures) failed(o outcome) int    { return o.FailedFigures }

func (w *paperFigures) check(o outcome) error {
	if o.FailedFigures > 0 {
		return fmt.Errorf("paper-figures: %d of %d steps failed", o.FailedFigures, len(figureNames))
	}
	if len(o.Claims) != headlineClaims {
		return fmt.Errorf("paper-figures: headline has %d claims, want %d", len(o.Claims), headlineClaims)
	}
	for i, v := range o.Claims {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("paper-figures: headline claim %d is %v", i+1, v)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared helpers.

// latencyPercentiles returns the nearest-rank p50, p99 and p999 of the
// arrival-to-completion latency of every request that finished without an
// error.
func latencyPercentiles(reqs []stringsched.RequestEvent) (p50, p99, p999 stringsched.Time) {
	lat := make([]int64, 0, len(reqs))
	for _, ev := range reqs {
		if ev.Err == "" {
			lat = append(lat, int64(ev.CompletionTime()))
		}
	}
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := func(p float64) stringsched.Time {
		i := int(math.Ceil(p*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		return stringsched.Time(lat[i])
	}
	return rank(0.50), rank(0.99), rank(0.999)
}

// serviceFairness is the Jain index over per-tenant attained service ÷
// demand, tenants in id order.
func serviceFairness(runs []*stringsched.RunResult, demand map[int64]float64) float64 {
	svc := map[int64]float64{}
	for _, r := range runs {
		for id, s := range r.TenantService {
			svc[id] += float64(s)
		}
	}
	ids := make([]int64, 0, len(svc))
	for id := range svc {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var x []float64
	for _, id := range ids {
		if d := demand[id]; d > 0 {
			x = append(x, svc[id]/d)
		}
	}
	return stringsched.JainFairness(x)
}
