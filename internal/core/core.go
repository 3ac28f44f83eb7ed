// Package core assembles the complete Strings runtime over the simulated
// cluster: nodes with their GPUs, the gPool and gMap, the GPU Affinity
// Mapper service, per-GPU backend processes with the Context Packer and the
// device-level GPU Scheduler (Design III), and the two baselines the paper
// evaluates against — the bare CUDA runtime (static provisioning) and Rain
// (Design I: one backend process per application, no context packing).
package core

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/devsched"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/interpose"
	"repro/internal/packer"
	"repro/internal/remoting"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/sim/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mode selects which runtime serves applications' GPU work.
type Mode int

// Runtime modes.
const (
	// ModeCUDA is static provisioning on the bare CUDA runtime:
	// applications keep their programmed device, one GPU context per
	// process, no remoting, no scheduling.
	ModeCUDA Mode = iota
	// ModeRain is the authors' prior scheduler (Design I): GPU remoting and
	// workload balancing with one backend process per application, so
	// co-located applications still multiplex GPU contexts.
	ModeRain
	// ModeStrings is the paper's system (Design III): one backend process
	// per GPU hosting one backend thread per application, context packing
	// over per-application CUDA streams, and device-level scheduling.
	ModeStrings
)

// String returns the mode name used in the figures.
func (m Mode) String() string {
	switch m {
	case ModeCUDA:
		return "CUDA"
	case ModeRain:
		return "Rain"
	case ModeStrings:
		return "Strings"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// NodeConfig describes one server node.
type NodeConfig struct {
	Devices []gpu.Spec
}

// Config describes a full experimental setup.
type Config struct {
	Seed  int64
	Nodes []NodeConfig
	Mode  Mode

	// Balance names the workload-balancing policy (GRR, GMin, GWtMin, RTF,
	// GUF, DTF, MBF). Ignored in ModeCUDA.
	Balance string

	// DevPolicy names the device-level scheduling policy: "none", "TFS",
	// "LAS" or "PS". Ignored in ModeCUDA; "PS" is Strings-only.
	DevPolicy string

	Sched  devsched.Config
	CUDA   cuda.Config
	Packer packer.Config

	// LocalLink and RemoteLink override the RPC link models (zero values
	// select the package defaults).
	LocalLink  rpcproto.LinkSpec
	RemoteLink rpcproto.LinkSpec

	// Trace installs a utilization tracer on every device.
	Trace bool

	// Recorder, when non-nil, records virtual-time spans, events and
	// decision-audit records across the whole request path (see
	// internal/trace). Nil disables tracing with zero overhead.
	Recorder *trace.Recorder

	// MemoryGuard enables memory-pressure admission control in the Strings
	// backends: an application whose allocation would exceed device memory
	// waits for capacity instead of failing, removing the paper's
	// assumption that the arrival rate never exhausts device memory.
	MemoryGuard bool

	// Faults schedules deterministic backend failures (kill/stall/degrade a
	// node or GPU at a virtual time). The zero plan injects nothing and
	// adds zero events. Ignored in ModeCUDA (there is no remoting layer to
	// fail).
	Faults faults.Plan

	// Recovery arms the interposers' failure handling: per-call timeouts,
	// idempotent retransmits and failover to a surviving GPU. The zero
	// value disables it, leaving the frontend bit-identical to the
	// pre-fault-tolerance behaviour.
	Recovery interpose.Recovery

	// Kernel, when non-nil, is Reset(Seed) and reused instead of building a
	// fresh kernel — the sweep workers recycle kernels through a
	// parallel.KernelArena so back-to-back cells reuse the heap and ring
	// backing arrays. A reset kernel reproduces a fresh kernel's event
	// sequence exactly (see internal/sim reset tests), so this is purely an
	// allocation optimization.
	Kernel *sim.Kernel

	// Traces, when non-nil, memoizes materialized arrival traces so cells
	// that replay the same workload stream share one immutable slice
	// instead of regenerating it per run. Derivation is bit-identical to
	// the inline path (workload.StreamSeed).
	Traces *workload.TraceBook

	// Shards sets how the cluster's nodes map onto environments, the kernel
	// domains it is composed of (see shardenv.go). Shards == 0 puts every
	// node in one environment on one kernel. Shards >= 1 gives each node its
	// own environment and kernel, composed under a conservative-lookahead
	// coordinator (internal/sim/shard) with Shards barrier workers; results
	// are bit-identical for every Shards >= 1, since the partition is always
	// per-node and Shards only sets the worker count. Calls within an
	// environment take the direct same-kernel path, where feedback and
	// failure reports reach the mapper instantly; calls across environments
	// cross mailboxes and pay the RemoteLink latency, which is the
	// lookahead. So the two layouts are distinct models of the same fleet.
	// Topologies the per-node partition cannot express — a single node,
	// partitionable (MIG) fleets whose slices are carved across nodes, or
	// fault plans that mutate cross-node state — collapse to one
	// environment; Sharded() reports the outcome. Negative values are
	// rejected.
	Shards int
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	K   *sim.Kernel
	cfg Config

	gmap    *remoting.GMap
	mapper  *balancer.Mapper
	mapQ    *sim.Queue[mapperMsg]
	devices []*gpu.Device // indexed by GID
	traces  []*gpu.UtilTrace
	nodeDev [][]*gpu.Device // per node
	scheds  []*devsched.Scheduler
	backs   []*stringsBackend

	results *RunResult // environment 0's sink; the others merge into it

	// Environments (see shardenv.go): one holding every node, or one per
	// node with coord driving their kernels (nil with one environment).
	envs      []*shardEnv
	coord     *shard.Coordinator
	envOfNode []*shardEnv
	envOfGID  []*shardEnv

	closed bool // set by Close; a closed cluster refuses to run

	// Injected fault state, indexed by GID and written only by the fault
	// injector (all zero in fault-free runs).
	gpuDown    []bool
	stallUntil []sim.Time
	degrade    []float64

	// Slice-placement ledger (see slices.go); inert unless the fleet has
	// partitionable devices and a run declares slice streams.
	sl sliceState
}

// selectResult carries a selection answer from the mapper service back to
// the waiting interposer.
type selectResult struct {
	gid balancer.GID
}

// mapperMsg is a message to the affinity-mapper service process: a
// selection request (out set), a failure report (hOut set), or a
// feedback/release or recovery relay. Requests that expect a verdict name
// the requester's environment and the event to fire there.
type mapperMsg struct {
	req  balancer.Request
	out  *selectResult
	from *shardEnv
	done *sim.Event

	fb      *rpcproto.Feedback
	release bool
	relGID  balancer.GID
	relKind string

	// Failure-detector traffic.
	fail      bool
	recovered bool
	hGID      balancer.GID
	hOut      *healthResult
}

// healthResult carries a failure report's verdict back to the caller.
type healthResult struct {
	h balancer.Health
}

// New builds a cluster per cfg. The kernel, devices, gPool, mapper service
// and (for ModeStrings) per-GPU backends are created immediately.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: no nodes configured")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: negative Shards %d", cfg.Shards)
	}
	if cfg.Balance == "" {
		cfg.Balance = "GRR"
	}
	if cfg.DevPolicy == "" {
		cfg.DevPolicy = "none"
	}
	if cfg.LocalLink == (rpcproto.LinkSpec{}) {
		cfg.LocalLink = rpcproto.SharedMemLink
	}
	if cfg.RemoteLink == (rpcproto.LinkSpec{}) {
		cfg.RemoteLink = rpcproto.RemoteLink
	}
	k := cfg.Kernel
	if k != nil {
		k.Reset(cfg.Seed)
	} else {
		k = sim.NewKernel(cfg.Seed)
	}
	c := &Cluster{K: k, cfg: cfg}
	c.buildEnvs()

	// Physical devices and the gPool. Each device lives on its node's
	// environment kernel.
	var infos []remoting.NodeInfo
	for n, node := range cfg.Nodes {
		if len(node.Devices) == 0 {
			return nil, fmt.Errorf("core: node %d has no devices", n)
		}
		var devs []*gpu.Device
		for _, spec := range node.Devices {
			devs = append(devs, c.addDevice(c.envOfNode[n], spec))
		}
		c.nodeDev = append(c.nodeDev, devs)
		infos = append(infos, remoting.NodeInfo{
			Node: n, Addr: fmt.Sprintf("10.1.%d.2", n), Devices: node.Devices,
		})
	}
	c.gmap = remoting.BuildGMap(infos)
	c.initSlices()

	if cfg.Mode == ModeCUDA {
		return c, nil
	}

	// Affinity mapper service.
	pol, err := balancer.ByName(cfg.Balance)
	if err != nil {
		return nil, err
	}
	c.mapper = balancer.NewMapper(c.gmap.DST(), pol)
	c.mapper.SetRecorder(cfg.Recorder)
	c.mapQ = sim.NewQueue[mapperMsg](c.K)
	c.K.Go("affinity-mapper", c.mapperLoop)

	// Device schedulers and, for Strings, per-GPU backend processes. Rain's
	// per-process backends can only observe attained service at request
	// boundaries, so its Request Monitor runs with coarse accounting.
	for g, d := range c.devices {
		dp, err := c.devPolicy()
		if err != nil {
			return nil, err
		}
		e := c.envOfGID[g]
		c.scheds = append(c.scheds, c.newSched(e, d, g, dp))
		if cfg.Mode == ModeStrings {
			c.backs = append(c.backs, newStringsBackend(c, e, g))
		}
	}
	faults.Start(c.K, cfg.Faults, c)
	return c, nil
}

// addDevice creates the next GID's device on environment e, with its
// utilization tracer and op spans when enabled, and zero fault state.
func (c *Cluster) addDevice(e *shardEnv, spec gpu.Spec) *gpu.Device {
	gid := len(c.devices)
	d := gpu.NewDevice(e.k, spec, gid)
	var tr *gpu.UtilTrace
	if c.cfg.Trace {
		tr = &gpu.UtilTrace{}
		d.SetTracer(tr)
	}
	if rec := e.rec; rec.Enabled() {
		// GPU-op spans: the completion callback sees the op's full timing,
		// so each op records as an already-finished span.
		d.SetOnComplete(func(op *gpu.Op) {
			if op.Kind == gpu.OpMarker {
				return
			}
			rec.Complete(trace.KOp, op.Kind.String(),
				op.AppID, gid, op.Bytes, op.Started, op.Finished)
		})
	}
	c.devices = append(c.devices, d)
	c.traces = append(c.traces, tr)
	c.envOfGID = append(c.envOfGID, e)
	c.gpuDown = append(c.gpuDown, false)
	c.stallUntil = append(c.stallUntil, 0)
	c.degrade = append(c.degrade, 0)
	return d
}

// newSched builds one device scheduler with the cluster's config (Rain's
// per-process backends get the coarse accounting lag). The scheduler lives
// on the device's environment kernel.
func (c *Cluster) newSched(e *shardEnv, d *gpu.Device, gid int, dp devsched.Policy) *devsched.Scheduler {
	schedCfg := c.cfg.Sched
	if c.cfg.Mode == ModeRain && schedCfg.AccountingLag == 0 {
		schedCfg.AccountingLag = 100 * sim.Millisecond
	}
	s := devsched.New(e.k, d, gid, dp, schedCfg)
	s.SetRecorder(e.rec)
	return s
}

// devPolicy instantiates a fresh device-policy value (stateful policies
// like TFS need one instance per device).
func (c *Cluster) devPolicy() (devsched.Policy, error) {
	switch c.cfg.DevPolicy {
	case "", "none":
		return devsched.AllAwake{}, nil
	case "TFS":
		return devsched.NewTFS(), nil
	case "LAS":
		return devsched.LAS{}, nil
	case "PS":
		if c.cfg.Mode != ModeStrings {
			return nil, fmt.Errorf("core: PS is a Strings-only policy")
		}
		return devsched.PS{}, nil
	default:
		return nil, fmt.Errorf("core: unknown device policy %q", c.cfg.DevPolicy)
	}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// GMap returns the gPool's device map.
func (c *Cluster) GMap() *remoting.GMap { return c.gmap }

// Mapper returns the affinity mapper (nil in ModeCUDA).
func (c *Cluster) Mapper() *balancer.Mapper { return c.mapper }

// Devices returns the devices in GID order.
func (c *Cluster) Devices() []*gpu.Device { return c.devices }

// Scheduler returns the device scheduler for gid (nil in ModeCUDA).
func (c *Cluster) Scheduler(gid int) *devsched.Scheduler {
	if c.scheds == nil {
		return nil
	}
	return c.scheds[gid]
}

// Trace returns the utilization trace of device gid (nil unless
// Config.Trace).
func (c *Cluster) Trace(gid int) *gpu.UtilTrace { return c.traces[gid] }

// mapperLoop is the GPU Affinity Mapper service process.
func (c *Cluster) mapperLoop(p *sim.Proc) {
	const serviceTime = 3 * sim.Microsecond
	for {
		m := c.mapQ.Get(p)
		p.Sleep(serviceTime)
		switch {
		case m.fail:
			h := c.mapper.ReportFailure(m.hGID)
			if h == balancer.Dead {
				// The detector gave up on the device: take it out of the
				// gPool too, so the alive view and the DST agree.
				c.gmap.MarkDead(m.hGID)
			}
			m.hOut.h = h
			c.fireReply(m)
		case m.recovered:
			c.mapper.ReportRecovered(m.hGID)
		case m.done != nil:
			if m.req.WantsSlice() {
				c.handleSliceSelect(p, m)
				continue
			}
			m.out.gid = c.mapper.SelectAt(p.Now(), m.req)
			c.fireReply(m)
		case m.release:
			if m.fb != nil {
				c.mapper.Feedback(m.fb)
			}
			c.mapper.Release(m.relGID, m.relKind)
			c.noteSliceRelease(p, m.relGID)
		}
	}
}

// controlLatency returns the one-way control-message latency between a node
// and the mapper (which runs on node 0).
func (c *Cluster) controlLatency(node int) sim.Time {
	if node == 0 {
		return c.cfg.LocalLink.Latency
	}
	return c.cfg.RemoteLink.Latency
}
