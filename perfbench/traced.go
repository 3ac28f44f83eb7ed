package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/stringsched"
)

// spanCounts are the recorder's exact counts over one traced repetition.
type spanCounts struct {
	Requests    int // requests of the traced repetition
	Switches    int // device context switches (Device.Stats)
	Spans       int
	Ops         int   // KOp spans
	OpUS        int64 // summed KOp durations
	WaitUS      int64 // summed KWait durations
	Wakes       int   // KWake events
	Execs       int   // KExec spans
	ExecUS      int64
	Calls       int // KCall spans
	SelectUS    int64
	Decisions   int
	Spilled     int
	CallMix     map[string]int // KCall span name → count
	Outcome     outcome        // the traced repetition's outcome
	LiveEntries float64        // mean live applications per device (Little's law)
}

// tracedRun is the traced pass of one workload: the same repetition run
// untraced and then with the recorder attached.
type tracedRun struct {
	counts    spanCounts
	untracedS float64 // host seconds of the untraced repetition
	tracedS   float64 // host seconds of the traced repetition
	heapMB    float64 // live heap the traced repetition added, recorders held
}

// add folds one recorder's spans, events and decisions into c.
func (c *spanCounts) add(rec *trace.Recorder) {
	set := rec.Snapshot()
	c.Spans += len(set.Spans)
	for _, s := range set.Spans {
		d := int64(s.Duration())
		switch s.Kind {
		case trace.KOp:
			c.Ops++
			c.OpUS += d
		case trace.KWait:
			c.WaitUS += d
		case trace.KExec:
			c.Execs++
			c.ExecUS += d
		case trace.KCall:
			c.Calls++
			c.CallMix[s.Name]++
		case trace.KSelect:
			c.SelectUS += d
		}
	}
	for _, e := range set.Events {
		if e.Kind == trace.KWake {
			c.Wakes++
		}
	}
	c.Decisions += len(set.Decisions)
	for _, d := range set.Decisions {
		if d.Spilled {
			c.Spilled++
		}
	}
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// megaTraced runs mega-stream's repetition of requests untraced, then
// traced; the recorder must not change the outcome.
func megaTraced(seed int64, requests int) (tracedRun, error) {
	var tr tracedRun
	plain := &megaStream{seed: seed, requests: requests}
	u, err := plain.setUp()
	if err != nil {
		return tr, err
	}
	start := time.Now()
	want, err := u()
	tr.untracedS = time.Since(start).Seconds()
	if err != nil {
		return tr, err
	}

	heap0 := liveHeapMB()
	rec := trace.New()
	w := &megaStream{seed: seed, requests: requests, rec: rec}
	if u, err = w.setUp(); err != nil {
		return tr, err
	}
	start = time.Now()
	got, err := u()
	tr.tracedS = time.Since(start).Seconds()
	if err != nil {
		return tr, err
	}
	if err := sameOutcome(want, got); err != nil {
		return tr, fmt.Errorf("mega-stream: tracing changed the outcome: %w", err)
	}
	tr.heapMB = liveHeapMB() - heap0
	tr.counts = spanCounts{Requests: requests, Switches: got.Switches, Outcome: got, CallMix: map[string]int{}}
	tr.counts.add(rec)
	devices := len(w.cluster.Devices())
	tr.counts.LiveEntries = float64(sumCompletion(w.last.Requests)) / (float64(got.EndTime) * float64(devices))
	return tr, nil
}

// clusterTraced runs cluster-tfs's supernode runs with a recorder on each.
// The cluster tier builds its supernode clusters internally, so the traced
// pass rebuilds them from the placement log exactly as the tier does (same
// folded seeds, same stream order) and checks that the rebuilt runs
// dispatch the same events and finish the same requests.
func clusterTraced(seed int64, tenants int) (tracedRun, error) {
	var tr tracedRun
	spec, err := stringsched.ParseOpenArrivalSpec(clusterSpecText(tenants))
	if err != nil {
		return tr, err
	}
	r, err := stringsched.RunCluster(clusterConfig(seed, spec))
	if err != nil {
		return tr, fmt.Errorf("cluster-tfs: %w", err)
	}
	births, err := clusterBirths(spec, seed)
	if err != nil {
		return tr, err
	}
	fleet := clusterFleet()
	streams := make([][]stringsched.StreamSpec, len(fleet))
	for _, p := range r.Log.Placements {
		b := births[p.Tenant-1]
		streams[p.Supernode] = append(streams[p.Supernode], stringsched.StreamSpec{
			Kind: b.Kind, Count: b.Requests, Lambda: b.Lambda,
			Node: p.Node, Tenant: int64(p.Tenant), Weight: b.Weight, Start: p.At,
		})
	}
	pass := func(traced bool) (spanCounts, []*trace.Recorder, float64, error) {
		c := spanCounts{CallMix: map[string]int{}, Outcome: clusterOutcome(r)}
		var recs []*trace.Recorder
		var events uint64
		var latency int64
		devices := 0
		start := time.Now()
		for i, sn := range fleet {
			if len(streams[i]) == 0 {
				continue
			}
			cfg := stringsched.Config{
				Seed: sweep.FoldSeed(seed, uint64(i)), Nodes: sn.Nodes,
				Mode: stringsched.ModeStrings, Balance: "GMin", DevPolicy: "TFS", Shards: 1,
			}
			if traced {
				cfg.Recorder = trace.New()
			}
			cl, err := stringsched.NewCluster(cfg)
			if err != nil {
				return c, nil, 0, fmt.Errorf("cluster-tfs: supernode %d: %w", i, err)
			}
			res, err := cl.Run(streams[i])
			cl.Close()
			if err != nil {
				return c, nil, 0, fmt.Errorf("cluster-tfs: supernode %d: %w", i, err)
			}
			events += cl.Dispatched()
			c.Requests += len(res.Requests)
			latency += sumCompletion(res.Requests)
			for _, d := range cl.Devices() {
				c.Switches += d.Stats().Switches
			}
			devices += len(cl.Devices())
			recs = append(recs, cl.Recorders()...)
		}
		elapsed := time.Since(start).Seconds()
		if events != r.Events || c.Requests != r.Requests {
			return c, nil, 0, fmt.Errorf("cluster-tfs: rebuilt supernode runs dispatched %d events for %d requests, the tier %d for %d",
				events, c.Requests, r.Events, r.Requests)
		}
		c.LiveEntries = float64(latency) / (float64(r.EndTime) * float64(devices))
		return c, recs, elapsed, nil
	}
	if _, _, tr.untracedS, err = pass(false); err != nil {
		return tr, err
	}
	heap0 := liveHeapMB()
	var recs []*trace.Recorder
	if tr.counts, recs, tr.tracedS, err = pass(true); err != nil {
		return tr, err
	}
	tr.heapMB = liveHeapMB() - heap0
	for _, rec := range recs {
		tr.counts.add(rec)
	}
	return tr, nil
}

// sumCompletion sums the arrival-to-completion latency of finished
// requests.
func sumCompletion(reqs []stringsched.RequestEvent) int64 {
	var s int64
	for _, ev := range reqs {
		if ev.Err == "" {
			s += int64(ev.CompletionTime())
		}
	}
	return s
}
