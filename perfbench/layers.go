package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/packer"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/stringsched"
)

// Layer entry-point timings: each times one exported call of a layer on
// inputs shaped like the workload, outside any simulation.

// timeOp returns the median host nanoseconds per call of op over five
// batches, each sized to take at least 20ms.
func timeOp(op func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	samples := make([]float64, 5)
	for s := range samples {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		samples[s] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// handoffNs times one process-to-process handoff through sim.Queue: two
// processes pass a value back and forth through depth-one queues, two
// handoffs per round.
func handoffNs() float64 {
	const rounds = 4096
	perRun := timeOp(func() {
		k := sim.NewKernel(1)
		ping := sim.NewQueue[int](k)
		pong := sim.NewQueue[int](k)
		k.Go("ping", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				ping.Put(r)
				pong.Get(p)
			}
		})
		k.Go("pong", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				pong.Put(ping.Get(p))
			}
		})
		k.Run()
	})
	return perRun / (2 * rounds)
}

// pickNs times one TFS Pick over entries backend threads shared by tenants
// tenants, every thread with work pending. The policy's turn state carries
// over between calls, as it does between dispatcher evaluations.
func pickNs(entries, tenants int) float64 {
	rng := rand.New(rand.NewSource(1))
	list := make([]*devsched.Entry, entries)
	pending := func() int { return 1 }
	for i := range list {
		list[i] = &devsched.Entry{
			AppID: i + 1, TenantID: int64(i%tenants + 1), Weight: 1,
			Backlog: pending, Attained: sim.Time(rng.Intn(1_000_000)),
		}
	}
	tfs := devsched.NewTFS()
	cfg := devsched.DefaultConfig()
	now := sim.Time(0)
	return timeOp(func() {
		now += cfg.TFSBaseSlice // every call starts a new turn
		tfs.Pick(now, list, &cfg)
	})
}

// pmtReleaseNs times pinning one staging buffer and releasing it at its
// stream's synchronization point, in a pinned-memory table already holding
// depth buffers of other applications.
func pmtReleaseNs(depth int) float64 {
	t := packer.NewPMT()
	for i := 0; i < depth; i++ {
		t.Add(i+2, 1, 1<<20, cuda.H2D)
	}
	return timeOp(func() {
		t.Add(1, 1, 1<<20, cuda.H2D)
		t.ReleaseSynced(1, 1)
	})
}

// roundtripNs times encoding and decoding one call and its reply, averaged
// over the workload's call mix (call name → count, from the trace).
func roundtripNs(mix map[string]int) (float64, error) {
	ids := map[string]cuda.CallID{}
	for id := cuda.CallSetDevice; id <= cuda.CallEventDestroy; id++ {
		ids[id.String()] = id
	}
	names := make([]string, 0, len(mix))
	total := 0
	for name, n := range mix {
		names = append(names, name)
		total += n
	}
	sort.Strings(names)
	if total == 0 {
		return 0, nil
	}
	var sum float64
	for _, name := range names {
		id, ok := ids[name]
		if !ok {
			return 0, fmt.Errorf("call mix: unknown call %q", name)
		}
		call := &rpcproto.Call{ID: id, Seq: 1, AppID: 3, TenantID: 2, Weight: 1, Bytes: 1 << 20}
		if id == cuda.CallLaunch {
			call.KernelName, call.Compute, call.MemTraffic = "gaussKernel", 5e8, 1e8
		}
		reply := &rpcproto.Reply{Seq: 1}
		if id == cuda.CallThreadExit {
			reply.Feedback = &rpcproto.Feedback{AppID: 3, Kind: "GA", MemBW: 0.42}
		}
		ns, err := codecRoundTrip(call, reply)
		if err != nil {
			return 0, err
		}
		sum += ns * float64(mix[name])
	}
	return sum / float64(total), nil
}

// codecRoundTrip times one call+reply wire round trip with reused buffers.
func codecRoundTrip(call *rpcproto.Call, reply *rpcproto.Reply) (float64, error) {
	cbuf := make([]byte, 0, rpcproto.CallWireSize(call))
	rbuf := make([]byte, 0, rpcproto.ReplyWireSize(reply))
	var gotCall rpcproto.Call
	var gotReply rpcproto.Reply
	var names rpcproto.Interner
	var failed error
	ns := timeOp(func() {
		cb, err := rpcproto.AppendCall(cbuf[:0], call)
		if err == nil {
			err = rpcproto.DecodeCallInto(&gotCall, cb[4:], &names)
		}
		if err == nil {
			var rb []byte
			rb, err = rpcproto.AppendReply(rbuf[:0], reply)
			if err == nil {
				err = rpcproto.DecodeReplyInto(&gotReply, rb[4:], &names)
			}
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return 0, fmt.Errorf("codec round trip of %v: %w", call.ID, failed)
	}
	return ns, nil
}

// selectNs times one device selection and its release on the mapper of a
// freshly built cluster, after one feedback report per device so feedback
// policies have history to rank by.
func selectNs(cfg stringsched.Config) (float64, error) {
	c, err := stringsched.NewCluster(cfg)
	if err != nil {
		return 0, fmt.Errorf("select: %w", err)
	}
	defer c.Close()
	m := c.Mapper()
	for _, e := range m.DST().Entries() {
		m.Feedback(&rpcproto.Feedback{
			AppID: 1, Kind: "GA", GID: int32(e.GID),
			ExecTime: 2 * sim.Second, GPUTime: sim.Second, XferTime: 100 * sim.Millisecond,
			MemBW: 0.4, GPUUtil: 0.5,
		})
	}
	req := balancer.Request{AppID: 7, Kind: "GA", Node: 0, Tenant: 1}
	return timeOp(func() {
		gid := m.SelectAt(0, req)
		m.Release(gid, req.Kind)
	}), nil
}

// newClusterMs times stringsched.NewCluster for cfg.
func newClusterMs(cfg stringsched.Config) (float64, error) {
	var failed error
	ns := timeOp(func() {
		c, err := stringsched.NewCluster(cfg)
		if err != nil {
			failed = err
			return
		}
		c.Close()
	})
	if failed != nil {
		return 0, fmt.Errorf("new cluster: %w", failed)
	}
	return ns / 1e6, nil
}

// birthsMs times drawing the cluster-tfs population.
func birthsMs(seed int64, tenants int) (float64, error) {
	spec, err := stringsched.ParseOpenArrivalSpec(clusterSpecText(tenants))
	if err != nil {
		return 0, err
	}
	var failed error
	ns := timeOp(func() {
		if _, err := clusterBirths(spec, seed); err != nil {
			failed = err
		}
	})
	return ns / 1e6, failed
}
