// Package simnet models the cluster interconnect used by the simulated
// MPI runtime: a set of nodes, each with a network interface (NIC) that
// serialises injection (tx) and ejection (rx) at a configured bandwidth,
// plus a per-node memory engine used for intra-node transfers and
// memory-copy costs.
//
// A message between two nodes costs one wire latency plus transmission
// time at the bottleneck NIC; concurrent messages sharing a NIC queue
// behind each other, which is how contention at aggregator nodes emerges
// in the collective-write experiments.
package simnet

import (
	"fmt"

	"collio/internal/metrics"
	"collio/internal/probe"
	"collio/internal/sim"
)

// Config describes the interconnect of one simulated cluster.
type Config struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// InterBandwidth is per-NIC point-to-point bandwidth in bytes per
	// second (QDR InfiniBand-class: a few GB/s).
	InterBandwidth float64
	// InterLatency is the one-way wire latency between two nodes.
	InterLatency sim.Time
	// IntraBandwidth is the shared-memory copy bandwidth within a node.
	IntraBandwidth float64
	// IntraLatency is the latency of an intra-node handoff.
	IntraLatency sim.Time
	// MemBandwidth is the per-node memory-copy bandwidth used for
	// pack/unpack and buffer-assembly costs.
	MemBandwidth float64
	// LinkNoise, if non-nil, is called once per inter-node transfer leg
	// and returns a multiplicative service-time factor (1.0 = calm).
	// Used to model shared, non-dedicated fabrics.
	LinkNoise func(rng func() float64) float64
	// NetModel selects the transfer model: ModelChunked (the exact
	// per-request reference, default) or ModelFlow (fluid max-min
	// fair-share approximation for bulk transfers; see flow.go).
	NetModel NetModel
	// FlowMinBytes is the smallest inter-node transfer routed through
	// the fluid model under ModelFlow; smaller messages keep the exact
	// path. 0 means 64 KiB.
	FlowMinBytes int64
}

// Node is one compute node's network endpoints. k is the kernel the
// node's servers live on, lp the logical process that owns them and sh
// that LP's host state: the shared kernel and LP 0 on a sequential
// network, the node's own LP under partitioned execution.
type Node struct {
	ID  int
	lp  int
	sh  *netShard
	k   *sim.Kernel
	tx  *sim.Server
	rx  *sim.Server
	ipc *sim.Server
	mem *sim.Server
}

// netShard is one LP's slice of the network's mutable host state: the
// Transfer free list and the probe sink, each touched only by the
// owning LP (the single LP of a sequential run, or one window worker
// under partitioned execution). Padded so adjacent shards never share a
// cache line across workers.
//
// The free list mirrors the sim.Server request pool: every message, RMA
// put and rendezvous chunk turns over one handle, and at
// multi-thousand-rank scale those allocations dominate the network
// layer's heap churn. Handles return via Release; callers that never
// release (tests, one-shot tools) simply leave their handles to the GC.
type netShard struct {
	probe         *probe.Probe
	freeTransfers *Transfer
	_             [48]byte
}

// Network is the instantiated interconnect.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	nodes []*Node

	// part is the LP partition (nil on a sequential network). shards
	// holds each LP's host state: one shard for a sequential network,
	// one per node under partitioned execution (see NewPartitioned).
	part   *sim.Partition
	shards []netShard

	// fluid is the max-min fair solver bulk transfers ride under
	// ModelFlow (nil under ModelChunked).
	fluid *fluidNet
}

// New builds a network on kernel k from cfg: one LP, every node on k.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("simnet: Config.Nodes must be positive")
	}
	n := &Network{k: k, cfg: cfg, shards: make([]netShard, 1)}
	if cfg.NetModel == ModelFlow {
		if cfg.LinkNoise != nil {
			panic("simnet: ModelFlow computes deterministic fluid rates; LinkNoise requires ModelChunked")
		}
		n.fluid = newFluidNet(k, cfg)
	}
	noise := func() float64 { return 1 }
	if cfg.LinkNoise != nil {
		draw := k.Rand().Float64 // one method value, not one per transfer
		noise = func() float64 { return cfg.LinkNoise(draw) }
	}
	for i := 0; i < cfg.Nodes; i++ {
		nd := newNode(k, 0, &n.shards[0], cfg, i)
		if cfg.LinkNoise != nil {
			nd.tx.Noise = noise
			nd.rx.Noise = noise
		}
		n.nodes = append(n.nodes, nd)
	}
	return n
}

// NewPartitioned builds a network whose node i lives entirely on LP i
// of part: servers, free lists and probe sinks are all node-local, so
// windows on different LPs never share network state. Cross-node
// interactions ride the partition mailboxes with delay >= InterLatency
// — the lookahead that makes conservative execution safe. LinkNoise is
// rejected: a noise stream drawn from one shared RNG in global
// submission order is a zero-lookahead coupling between all nodes,
// exactly the case that must fall back to sequential execution.
func NewPartitioned(part *sim.Partition, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("simnet: Config.Nodes must be positive")
	}
	if cfg.LinkNoise != nil {
		panic("simnet: LinkNoise is a zero-lookahead coupling; partitioned execution requires a noise-free config")
	}
	if cfg.NetModel == ModelFlow {
		panic("simnet: ModelFlow recomputes global rates at every arrival (zero lookahead); partitioned execution requires ModelChunked")
	}
	if part.NKernels() < cfg.Nodes {
		panic("simnet: partition has fewer LPs than nodes")
	}
	if cfg.InterLatency < part.Lookahead() {
		panic("simnet: InterLatency below partition lookahead")
	}
	n := &Network{
		k:      part.Kernel(0),
		cfg:    cfg,
		part:   part,
		shards: make([]netShard, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n.nodes = append(n.nodes, newNode(part.Kernel(i), i, &n.shards[i], cfg, i))
	}
	return n
}

func newNode(k *sim.Kernel, lp int, sh *netShard, cfg Config, i int) *Node {
	return &Node{
		ID:  i,
		lp:  lp,
		sh:  sh,
		k:   k,
		tx:  k.NewServer(fmt.Sprintf("node%d.tx", i), cfg.InterBandwidth, 0),
		rx:  k.NewServer(fmt.Sprintf("node%d.rx", i), cfg.InterBandwidth, 0),
		ipc: k.NewServer(fmt.Sprintf("node%d.ipc", i), cfg.IntraBandwidth, 0),
		mem: k.NewServer(fmt.Sprintf("node%d.mem", i), cfg.MemBandwidth, 0),
	}
}

// Kernel returns the owning kernel (LP 0's under partitioned
// execution).
func (n *Network) Kernel() *sim.Kernel { return n.k }

// KernelFor returns the kernel node i's servers live on: the shared
// kernel of a sequential run, or node i's LP kernel when partitioned.
func (n *Network) KernelFor(node int) *sim.Kernel { return n.nodes[node].k }

// LPFor returns the logical process node i runs on: 0 on a sequential
// network, i when partitioned. Upper layers index their per-LP state
// with it.
func (n *Network) LPFor(node int) int { return n.nodes[node].lp }

// NumLPs returns the number of logical processes hosting nodes: 1 on a
// sequential network, one per node when partitioned.
func (n *Network) NumLPs() int { return len(n.shards) }

// Partition returns the LP partition this network runs on, or nil for a
// sequential network.
func (n *Network) Partition() *sim.Partition { return n.part }

// SetSinks attaches LP lp's observability sinks (nil detaches): probe
// p receives the events emitted on that LP — sends on the source
// node's, deliveries on the destination node's — and metrics m the
// tx/rx link-utilisation series of the nodes it hosts. A sequential
// network is one LP (lp 0, every node); a partitioned one hosts node i
// on LP i, and an LP hosting no node (external storage) has no network
// sink. Sinks only observe: recording is host-side appends at instants
// the simulator already visits, so timing and digests are unchanged.
// Per-LP sinks fold back with probe.MergeShards and metrics.MergeShards
// in sequential order.
func (n *Network) SetSinks(lp int, p *probe.Probe, m *metrics.Metrics) {
	if lp >= len(n.shards) {
		return
	}
	n.shards[lp].probe = p
	// LP lp's nodes are contiguous from index lp: every node on a
	// sequential network, node lp alone on a partitioned one.
	for i := lp; i < len(n.nodes) && n.nodes[i].lp == lp; i++ {
		wireNodeMetrics(m, i, n.nodes[i])
	}
}

func wireNodeMetrics(m *metrics.Metrics, i int, nd *Node) {
	if m == nil {
		nd.tx.ObserveService, nd.rx.ObserveService = nil, nil
		return
	}
	tx := m.Gauge(metrics.LinkBusy(i, "tx"), metrics.ModeSum)
	rx := m.Gauge(metrics.LinkBusy(i, "rx"), metrics.ModeSum)
	nd.tx.ObserveService = func(start, end sim.Time) { tx.AddSpan(start, end) }
	nd.rx.ObserveService = func(start, end sim.Time) { rx.AddSpan(start, end) }
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }

// Transfer result futures: Injected completes when the sender-side NIC
// has finished injecting the message (local completion, the MPI eager
// send semantics); Delivered completes when the last byte has arrived at
// the destination.
//
// Transfer handles are pooled: a caller that has registered its
// completion callbacks may hand the handle back with Network.Release,
// after which it must not be touched — the futures complete
// independently of the handle's lifetime.
type Transfer struct {
	Injected  *sim.Future
	Delivered *sim.Future
	Size      int64
	From, To  int
	next      *Transfer // free-list link, nil while the handle is live
}

// newTransfer takes a handle from the source LP's free list sh (or
// allocates one), so concurrent windows never race on a list head.
func (sh *netShard) newTransfer(size int64, from, to int) *Transfer {
	tr := sh.freeTransfers
	if tr == nil {
		return &Transfer{Size: size, From: from, To: to}
	}
	sh.freeTransfers = tr.next
	*tr = Transfer{Size: size, From: from, To: to}
	return tr
}

// Release clears a transfer handle's references and returns it to the
// free list. Callers must have extracted or registered everything they
// need from the handle first: the futures keep completing on their own,
// but the handle's fields may be overwritten by the next Send. A handle
// must be released by its sending LP (every call site releases at the
// Send call site, so this holds by construction); it returns to that
// LP's pool.
func (n *Network) Release(tr *Transfer) {
	sh := n.nodes[tr.From].sh
	*tr = Transfer{next: sh.freeTransfers}
	sh.freeTransfers = tr
}

// Send moves size bytes from node `from` to node `to` and returns the
// transfer handle. Intra-node sends go through the node's memory engine;
// inter-node sends occupy the source tx port and the destination rx port
// concurrently (cut-through pipelining), so an uncontended transfer
// completes after latency + size/bandwidth.
func (n *Network) Send(from, to int, size int64) *Transfer {
	return n.SendFlow(nil, from, to, size)
}

// SendFlow is Send with an explicit flow key: transfers sharing a flow
// are served in order, while distinct flows share each port fairly (see
// sim.Server). Rendezvous pipelines, RMA epochs and file-write bursts
// each form one flow. The caller must be running on the source node's
// LP (all senders in this codebase are: ranks, engines and node-local
// services pin to their node's kernel). Intra-node sends stay on that
// LP; only the inter-node leg differs between a sequential and a
// partitioned network (joinSequential, joinPartitioned).
func (n *Network) SendFlow(flow interface{}, from, to int, size int64) *Transfer {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	if n.fluid != nil && size >= n.fluid.minBytes {
		return n.sendFluid(from, to, size, nil)
	}
	src, dst := n.nodes[from], n.nodes[to]
	tr := src.sh.newTransfer(size, from, to)
	if from == to {
		observeSend(src, tr, probe.CauseIntra, src.ipc)
		f := src.ipc.SubmitFlowAfter(flow, n.cfg.IntraLatency, size)
		tr.Injected = f
		tr.Delivered = f
	} else {
		observeSend(src, tr, probe.CauseInter, src.tx)
		if n.part == nil {
			n.joinSequential(flow, src, dst, tr)
		} else {
			n.joinPartitioned(flow, src, dst, tr)
		}
	}
	observeDeliver(dst, tr)
	return tr
}

// joinSequential wires an inter-node transfer on one kernel. The first
// byte reaches the destination one wire latency after the source NIC
// starts transmitting; tx and rx then stream concurrently (cut-through),
// so delivery completes when both ports have finished.
func (n *Network) joinSequential(flow interface{}, src, dst *Node, tr *Transfer) {
	rxDone := n.k.NewFuture()
	lat, size := n.cfg.InterLatency, tr.Size
	tr.Injected = src.tx.SubmitFlowOnStart(flow, size, func() {
		inner := dst.rx.SubmitFlowAfter(flow, lat, size)
		inner.Then(rxDone)
	})
	tr.Delivered = n.k.Join(tr.Injected, rxDone)
}

// joinPartitioned wires an inter-node transfer whose destination half
// lives on the destination LP, replicating joinSequential's event
// chain:
//
//   - The rx-leg submission crosses LPs at txStart+InterLatency >=
//     lookahead — the same After(InterLatency) hop the sequential path
//     schedules, so event keys and zero-delay hop depths line up and
//     the merged event order is bit-identical.
//   - The sequential Delivered = Join(Injected, rxDone) would share a
//     countdown between two LPs; instead the destination joins rxDone
//     with a tx-completion stub. Service times are deterministic here
//     (no noise), so the tx leg's completion instant txStart+d is known
//     at transmission start and can be sent ahead as a future-stamped
//     message — precomputability converts the tx-done edge's zero
//     delay into usable lookahead. The stub completes strictly before
//     the rx leg finishes (rx starts one latency later and serves at
//     the same bandwidth), so Delivered still completes at the rx
//     instant with the sequential hop depth.
func (n *Network) joinPartitioned(flow interface{}, src, dst *Node, tr *Transfer) {
	// Destination-side futures are created and wired here, before the
	// window barrier first exposes them to the destination LP — the
	// barrier's happens-before edge transfers ownership.
	outer := dst.k.NewFuture()
	rxDone := dst.k.NewFuture()
	txStub := dst.k.NewFuture()
	outer.Then(rxDone)
	tr.Delivered = dst.k.Join(txStub, rxDone)
	lat, size := n.cfg.InterLatency, tr.Size
	d := src.tx.ServiceTime(size)
	srcK, toLP := src.k, dst.lp
	tr.Injected = src.tx.SubmitFlowOnStart(flow, size, func() {
		txStart := srcK.Now()
		srcK.ScheduleRemote(toLP, txStart+lat, func() {
			inner := dst.rx.SubmitFlow(flow, size)
			inner.Then(outer)
		})
		stubAt := txStart + d
		if stubAt < txStart+lat {
			stubAt = txStart + lat
		}
		srcK.ScheduleRemote(toLP, stubAt, txStub.Complete)
	})
}

// sendFluid routes one bulk transfer through the fluid model: Injected
// completes when the flow's last byte has been transmitted under
// max-min fair sharing, Delivered one latency later (wire latency for
// inter-node flows, ipc latency for intra-node ones — the distinct
// intra-node link class). The flow key is irrelevant here — fair
// sharing is per-flow by construction — and probe emissions reuse the
// exact path's hooks (the queue-depth sample reads the idle server and
// reports 0).
func (n *Network) sendFluid(from, to int, size int64, marks []flowMark) *Transfer {
	src := n.nodes[from]
	tr := src.sh.newTransfer(size, from, to)
	if from == to {
		observeSend(src, tr, probe.CauseIntra, src.ipc)
	} else {
		observeSend(src, tr, probe.CauseInter, src.tx)
	}
	tr.Injected = n.k.NewFuture()
	tr.Delivered = n.k.NewFuture()
	n.fluid.submit(from, to, size, tr.Injected, tr.Delivered, marks)
	observeDeliver(n.nodes[to], tr)
	return tr
}

// SendFlowMilestones is SendFlow through the fluid model with progress
// milestones: future i completes one wire latency after the flow's
// cumulative transmitted bytes cross offsets[i] (ascending, each in
// (0, size]). The bundled cohort executor uses it to replay per-member
// completion instants out of one aggregate transfer. Requires ModelFlow
// (which is sequential-only) and an inter-node pair; unlike SendFlow
// there is no FlowMinBytes cutoff — the caller asked for fluid
// semantics explicitly.
func (n *Network) SendFlowMilestones(from, to int, size int64, offsets []int64) (*Transfer, []*sim.Future) {
	if n.fluid == nil {
		panic("simnet: SendFlowMilestones requires ModelFlow on a sequential network")
	}
	if from == to {
		panic("simnet: SendFlowMilestones requires an inter-node transfer")
	}
	futs := make([]*sim.Future, len(offsets))
	marks := make([]flowMark, len(offsets))
	prev := int64(0)
	for i, off := range offsets {
		if off <= 0 || off > size || off < prev {
			panic("simnet: SendFlowMilestones offsets must ascend within (0, size]")
		}
		prev = off
		futs[i] = n.k.NewFuture()
		marks[i] = flowMark{bytes: float64(off), fut: futs[i]}
	}
	return n.sendFluid(from, to, size, marks), futs
}

// observeSend emits the submit-time events for one transfer into the
// sending LP's probe: the send itself plus an injection-port occupancy
// sample (depth before this request joins the queue). src is the
// sending node.
func observeSend(src *Node, tr *Transfer, path probe.Cause, port *sim.Server) {
	p := src.sh.probe
	if p == nil {
		return
	}
	now := src.k.Now()
	p.Emit(probe.Event{
		At: now, Layer: probe.LayerNet, Kind: probe.KindNetSend,
		Cause: path, Rank: tr.From, Peer: tr.To, Cycle: -1, Size: tr.Size,
	})
	p.Emit(probe.Event{
		At: now, Layer: probe.LayerNet, Kind: probe.KindNetQueue,
		Cause: path, Rank: tr.From, Peer: tr.To, Cycle: -1,
		V: int64(port.QueueDepth()),
	})
	ctr := p.Counters()
	ctr.Add(probe.CtrNetMsgs, 1)
	if path == probe.CauseInter {
		ctr.Add(probe.CtrNetInterBytes, tr.Size)
	} else {
		ctr.Add(probe.CtrNetIntraBytes, tr.Size)
	}
}

// observeDeliver registers a delivery event on the transfer's completion
// future, emitting into the probe of the LP the completion fires on:
// the destination node's. The extra zero-delay callback cannot reorder
// pre-existing kernel events (see package probe), so probing stays
// digest-invariant. The handle may be released (and recycled) before
// delivery, so the callback captures the fields, never the handle. dst
// is the destination node.
func observeDeliver(dst *Node, tr *Transfer) {
	p := dst.sh.probe
	if p == nil {
		return
	}
	k := dst.k
	from, to, size := tr.From, tr.To, tr.Size
	tr.Delivered.OnDone(func() {
		p.Emit(probe.Event{
			At: k.Now(), Layer: probe.LayerNet, Kind: probe.KindNetDeliver,
			Rank: to, Peer: from, Cycle: -1, Size: size,
		})
	})
}

// Memcpy charges a memory-copy of size bytes on node i and returns its
// completion future. Used for pack/unpack and collective-buffer
// assembly costs.
func (n *Network) Memcpy(node int, size int64) *sim.Future {
	return n.nodes[node].mem.Submit(size)
}

// TxServer exposes node i's injection port so that co-located services
// (e.g. node-local storage on the crill model) can share it.
func (n *Network) TxServer(node int) *sim.Server { return n.nodes[node].tx }
