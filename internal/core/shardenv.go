package core

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/interpose"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
)

// appIDStride spaces the per-environment application-ID ranges so IDs stay
// globally unique without cross-environment coordination: environment i
// hands out i*appIDStride+1, i*appIDStride+2, ...
const appIDStride = 1 << 32

// shardEnv is one environment: the composition unit of a cluster. An
// environment is a kernel domain. It owns its kernel, the recorder and
// result sink local to it, an app-ID counter, and the app→tenant map of the
// streams it runs. Every node belongs to exactly one environment. With
// Shards == 0, or a topology the per-node partition cannot express, all
// nodes share one environment on Cluster.K; per-node sharding gives each
// node its own environment under the coordinator. Environment 0 holds
// node 0 and the affinity mapper.
//
// shardEnv implements interpose.Fabric. Each call compares the destination
// environment (the mapper's, or the owner of the target GID) with its own.
// In the same environment it runs the direct same-kernel sequence: a select
// pays the control-plane latency each way, feedback and failure reports
// reach the mapper instantly, and conns are local. Across environments the
// call rides the coordinator's mailboxes, paying the remote-link latency
// (the lookahead) on every crossing.
type shardEnv struct {
	c   *Cluster
	idx int
	k   *sim.Kernel
	sh  *shard.Shard // mailbox endpoint; nil when the cluster has one environment
	rec *trace.Recorder

	results   *RunResult
	appSeq    int
	appTenant map[int]int64
}

var _ interpose.Fabric = (*shardEnv)(nil)

// shardEligible reports whether the per-node shard partition can express
// cfg's topology. A single node has nothing to partition; a zero remote
// latency admits no conservative lookahead; fault plans and partitionable
// (MIG) fleets mutate cross-node structure — dead devices leave the shared
// gPool, slices are carved on whatever node has room — from the mapper's
// environment, which the per-node ownership model cannot represent.
func shardEligible(cfg Config) bool {
	if len(cfg.Nodes) < 2 {
		return false
	}
	if cfg.RemoteLink.Latency < 1 {
		return false
	}
	if len(cfg.Faults.Faults) > 0 {
		return false
	}
	for _, n := range cfg.Nodes {
		for _, spec := range n.Devices {
			if spec.Partitionable() {
				return false
			}
		}
	}
	return true
}

// buildEnvs constructs the environment set and maps nodes onto it: one
// environment on c.K holding every node, or — when sharding is requested
// and the topology allows it — one environment per node under a
// conservative coordinator whose lookahead is the remote-link latency.
func (c *Cluster) buildEnvs() {
	cfg := c.cfg
	nEnv := 1
	if cfg.Shards >= 1 && shardEligible(cfg) {
		nEnv = len(cfg.Nodes)
	}
	kernels := []*sim.Kernel{c.K}
	for len(kernels) < nEnv {
		// The kernel RNG is unused by the model (streams carry their own
		// seeded sources), so every environment may share the seed.
		kernels = append(kernels, sim.NewKernel(cfg.Seed))
	}
	for i, k := range kernels {
		rec := cfg.Recorder
		if i > 0 && rec.Enabled() {
			rec = trace.New()
		}
		c.envs = append(c.envs, &shardEnv{
			c: c, idx: i, k: k, rec: rec,
			results: newRunResult(), appTenant: make(map[int]int64),
		})
	}
	if nEnv > 1 {
		c.coord = shard.NewCoordinator(kernels, cfg.RemoteLink.Latency, cfg.Shards)
		for i, e := range c.envs {
			e.sh = c.coord.Shard(i)
		}
	}
	// Node i belongs to environment i mod nEnv: all in one, or one each.
	for i := range cfg.Nodes {
		c.envOfNode = append(c.envOfNode, c.envs[i%nEnv])
	}
	c.results = c.envs[0].results
}

// Sharded reports whether the cluster runs one environment per node (a
// Shards >= 1 request may still collapse to one; see Config.Shards).
func (c *Cluster) Sharded() bool { return c.coord != nil }

// ShardStats returns the coordinator's window-protocol counters (zero when
// not sharded).
func (c *Cluster) ShardStats() shard.Stats {
	if c.coord == nil {
		return shard.Stats{}
	}
	return c.coord.Stats()
}

// Dispatched returns the total activations dispatched across every
// environment's kernel.
func (c *Cluster) Dispatched() uint64 {
	var n uint64
	for _, e := range c.envs {
		n += e.k.Dispatched()
	}
	return n
}

// FastForwards sums the fast-forward counters across every environment's
// kernel.
func (c *Cluster) FastForwards() (jumps uint64, skipped sim.Time) {
	for _, e := range c.envs {
		j, s := e.k.FastForwards()
		jumps += j
		skipped += s
	}
	return jumps, skipped
}

// Recorders returns every environment's recorder in environment order
// (empty when tracing is disabled). Concatenating their JSONL output in
// this order is the run's canonical trace.
func (c *Cluster) Recorders() []*trace.Recorder {
	var recs []*trace.Recorder
	for _, e := range c.envs {
		if e.rec.Enabled() {
			recs = append(recs, e.rec)
		}
	}
	return recs
}

// Close releases what the cluster holds beyond its results: the shard
// coordinator's barrier workers, then every environment kernel's processes
// (sim.Kernel.Reap), so the daemons a run leaves parked — mapper, drivers,
// dispatchers, timers, anything cut off by a RunUntil horizon — give back
// their goroutines. Results, device stats and the kernels' counters stay
// readable afterwards, but Run and RunUntil must not follow it. A cluster
// built on a Config.Kernel must be closed before that kernel is handed to
// anyone else. Safe to call more than once.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.coord != nil {
		c.coord.Close()
	}
	for _, e := range c.envs {
		e.k.Reap()
	}
}

// collect merges every environment's results into the cluster result
// (environment 0's sink) in environment order, stamps the global end time
// (the latest environment clock) and closes the stranded-capacity integral.
func (c *Cluster) collect() {
	var end sim.Time
	for _, e := range c.envs {
		if t := e.k.Now(); t > end {
			end = t
		}
	}
	for _, e := range c.envs[1:] {
		c.results.Merge(e.results)
	}
	c.results.EndTime = end
	c.closeStranded(end)
}

// nextAppID allocates the next application ID from the environment's range.
func (e *shardEnv) nextAppID() int {
	e.appSeq++
	return e.idx*appIDStride + e.appSeq
}

// post delivers a message to the mapper service: directly on the mapper's
// environment, through the mailbox (paying the remote-link latency) from
// any other.
func (e *shardEnv) post(m mapperMsg) {
	c := e.c
	if e == c.envs[0] {
		c.mapQ.Put(m)
		return
	}
	e.sh.Send(0, c.cfg.RemoteLink.Latency, func() { c.mapQ.Put(m) })
}

// fireReply delivers a mapper verdict to its requester's event: directly on
// the mapper's environment, through the mailbox (paying the remote-link
// latency) to any other.
func (c *Cluster) fireReply(m mapperMsg) {
	me := c.envs[0]
	if m.from == me {
		m.done.Fire()
		return
	}
	done := m.done
	me.sh.Send(m.from.idx, c.cfg.RemoteLink.Latency, func() { done.Fire() })
}

// SelectGPU implements interpose.Fabric. Requests from tenants with a slice
// profile are enriched with the profile's demand here, so the interposer
// stays slice-agnostic. On the mapper's environment the request sleeps the
// control-plane latency to its node on the way out and back; from another
// environment the mailbox charges the same crossing both ways.
func (e *shardEnv) SelectGPU(p *sim.Proc, req balancer.Request) balancer.GID {
	c := e.c
	req = c.sliceDemand(req)
	local := e == c.envs[0]
	lat := c.controlLatency(req.Node)
	if local {
		p.Sleep(lat)
	}
	m := mapperMsg{req: req, out: &selectResult{}, from: e, done: e.k.NewEvent()}
	e.post(m)
	p.Wait(m.done)
	if local {
		p.Sleep(lat)
	}
	return m.out.gid
}

// ConnectBackend implements interpose.Fabric. A connection to a backend in
// this environment is a local conn on its kernel. One to another
// environment is a cross-kernel conn whose two inbox queues live on their
// readers' kernels and whose deliveries ride the mailboxes; the accept is
// sent ahead on the same mailbox, so it is injected before (or at the same
// instant as, but ordered before) the handshake call.
func (e *shardEnv) ConnectBackend(p *sim.Proc, gid balancer.GID, fromNode int) rpcproto.Endpoint {
	c := e.c
	owner := c.envOfGID[gid]
	if owner == e {
		entry, ok := c.gmap.Lookup(gid)
		link := c.cfg.LocalLink
		if ok && entry.Node != fromNode {
			link = c.cfg.RemoteLink
		}
		conn := rpcproto.NewConn(e.k, link)
		e.accept(gid, conn)
		return conn.A()
	}
	link := c.cfg.RemoteLink
	conn := rpcproto.NewCrossConn(e.k, owner.k, link,
		func(lat sim.Time, fn func()) { e.sh.Send(owner.idx, lat, fn) },
		func(lat sim.Time, fn func()) { owner.sh.Send(e.idx, lat, fn) })
	e.sh.Send(owner.idx, link.Latency, func() { owner.accept(gid, conn) })
	return conn.A()
}

// accept hands a new frontend connection to gid's backend in this
// environment: the GPU's Strings daemon, or a fresh per-application Rain
// backend process (whose sequence number shares the app-ID counter).
func (e *shardEnv) accept(gid balancer.GID, conn *rpcproto.Conn) {
	c := e.c
	switch c.cfg.Mode {
	case ModeStrings:
		c.backs[gid].accept(conn)
	case ModeRain:
		e.appSeq++
		g, seq, ep := int(gid), e.appSeq, conn.B()
		e.k.GoNamed(func() string { return fmt.Sprintf("rain-%d-%d", g, seq) },
			func(p *sim.Proc) { c.rainServe(p, g, ep) })
	}
}

// ReportFeedback implements interpose.Fabric (fire and forget).
func (e *shardEnv) ReportFeedback(gid balancer.GID, kind string, fb *rpcproto.Feedback) {
	e.post(mapperMsg{fb: fb, release: true, relGID: gid, relKind: kind})
}

// ReportFailure implements interpose.Fabric: it relays one failed call to
// the affinity mapper's failure detector and blocks for the verdict.
func (e *shardEnv) ReportFailure(p *sim.Proc, gid balancer.GID) balancer.Health {
	m := mapperMsg{fail: true, hGID: gid, hOut: &healthResult{}, from: e, done: e.k.NewEvent()}
	e.post(m)
	p.Wait(m.done)
	return m.hOut.h
}

// ReportRecovered implements interpose.Fabric (fire and forget).
func (e *shardEnv) ReportRecovered(gid balancer.GID) {
	e.post(mapperMsg{recovered: true, hGID: gid})
}

// PoolSize implements interpose.Fabric.
func (e *shardEnv) PoolSize() int { return e.c.gmap.Len() }
