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
	tx  sim.Server
	rx  sim.Server
	ipc sim.Server
	mem sim.Server
}

// netShard is one LP's slice of the network's mutable host state: the
// Transfer pool and the probe sink, each touched only by the owning LP
// (the single LP of a sequential run, or one window worker under
// partitioned execution). Padded so adjacent shards never share a
// cache line across workers.
//
// Every message, RMA put and rendezvous chunk turns over one transfer,
// and at multi-thousand-rank scale those allocations dominate the
// network layer's heap churn. The pool's live count is the transfers
// this LP took minus those it returned (LiveTransfers).
type netShard struct {
	probe     *probe.Probe
	transfers sim.Pool[Transfer]
	_         [24]byte
}

// Network is the instantiated interconnect.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	nodes []Node

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
	n := &Network{k: k, cfg: cfg}
	n.makeShards(1)
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
	n.nodes = make([]Node, cfg.Nodes)
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.init(k, 0, &n.shards[0], cfg, i)
		if cfg.LinkNoise != nil {
			nd.tx.Noise = noise
			nd.rx.Noise = noise
		}
	}
	return n
}

// NewPartitioned builds a network whose node i lives entirely on LP i
// of part: servers, pools and probe sinks are all node-local, so
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
		panic("simnet: ModelFlow re-rates flows on other nodes at the instant of every arrival (zero lookahead); partitioned execution requires ModelChunked")
	}
	if part.NKernels() < cfg.Nodes {
		panic("simnet: partition has fewer LPs than nodes")
	}
	if cfg.InterLatency < part.Lookahead() {
		panic("simnet: InterLatency below partition lookahead")
	}
	n := &Network{k: part.Kernel(0), cfg: cfg, part: part}
	n.makeShards(cfg.Nodes)
	n.nodes = make([]Node, cfg.Nodes)
	for i := range n.nodes {
		n.nodes[i].init(part.Kernel(i), i, &n.shards[i], cfg, i)
	}
	return n
}

// makeShards gives the network nlps LP shards, each with an empty
// transfer pool whose slabs bind every transfer's actions.
func (n *Network) makeShards(nlps int) {
	bind := func(tr *Transfer) {
		tr.net = n
		tr.txStart = sim.NewEvent(tr, (*Transfer).startTx)
		tr.rxHop = sim.NewEvent(tr, (*Transfer).hopRx)
		tr.join = sim.NewEvent(tr, (*Transfer).joinLeg)
		tr.deliver = sim.NewEvent(tr, (*Transfer).complete)
		tr.record = sim.NewEvent(tr, (*Transfer).recordDeliver)
	}
	n.shards = make([]netShard, nlps)
	for i := range n.shards {
		n.shards[i].transfers = sim.NewPool(func(tr *Transfer) **Transfer { return &tr.next }, bind)
	}
}

// init makes nd node i on LP lp, whose kernel is k and host state sh.
func (nd *Node) init(k *sim.Kernel, lp int, sh *netShard, cfg Config, i int) {
	nd.ID, nd.lp, nd.sh, nd.k = i, lp, sh, k
	k.InitServer(&nd.tx, cfg.InterBandwidth, 0)
	k.InitServer(&nd.rx, cfg.InterBandwidth, 0)
	k.InitServer(&nd.ipc, cfg.IntraBandwidth, 0)
	k.InitServer(&nd.mem, cfg.MemBandwidth, 0)
}

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
		wireNodeMetrics(m, i, &n.nodes[i])
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
func (n *Network) Node(i int) *Node { return &n.nodes[i] }

// Transfer is one message in flight. Injected completes when the
// sender-side NIC has finished injecting the message (local
// completion, the MPI eager send semantics); Delivered completes when
// the last byte has arrived at the destination. An intra-node transfer
// has one future for both.
//
// Transfers are pooled, and the network owns them. A handle is lent to
// the caller for the event that called Send only: the caller registers
// what it needs on the futures (Then) before it returns to the kernel,
// and keeps neither the handle nor a future read from it. The handle
// checks this itself: Injected and Delivered panic, naming the
// transfer, when read in any later event or after its release. The
// network returns the transfer to the pool of the LP that runs its
// last event — Delivered's completion, or with a probe the delivery
// record one hop later — and the next Send there reuses it, futures
// included. A caller that must keep the delivery completion past the
// sending event passes its own future to SendFlowTo.
//
// The transfer is also every action of its own event chain: the tx
// start that submits the rx leg, the zero-delay hops of that leg, the
// join of both legs, the delivery and its probe record. Each is a
// sim.Event bound once, when the transfer's pool slab is made, so a
// message allocates nothing.
type Transfer struct {
	Size     int64
	From, To int

	net  *Network
	dst  *Node // nil once released
	flow interface{}
	// injected and delivered are what Injected and Delivered return.
	injected, delivered *sim.Future
	// lent is the source kernel's Fired count in the sending event.
	lent int64
	// tx is the injection future (Injected on an inter-node transfer);
	// del is Delivered unless the caller supplied its own.
	tx, del sim.Future
	// pending counts the legs the join still waits for (the tx
	// completion and the rx chain); hops counts the rx chain's
	// zero-delay hops left before it reaches the join.
	pending, hops int

	// probed is set when a probe records the delivery (record), which
	// then ends the chain.
	probed bool

	txStart, rxHop, join, deliver, record sim.Event[Transfer]
	// The partitioned leg's events cross LPs through
	// Kernel.ScheduleRemote, which takes a func: method values, bound
	// on the transfer's first partitioned send.
	rxArriveFn, stubFn func()

	next *Transfer // pool link, nil while the handle is live
}

// newTransfer takes a transfer from the source LP's pool, so concurrent
// windows never race on a list head. delivered, when non-nil, is the
// caller's delivery future.
func (n *Network) newTransfer(src, dst *Node, flow interface{}, size int64, delivered *sim.Future) *Transfer {
	tr := src.sh.transfers.Get()
	tr.Size, tr.From, tr.To = size, src.ID, dst.ID
	tr.dst, tr.flow, tr.lent = dst, flow, src.k.Fired()
	src.k.InitFuture(&tr.tx)
	if delivered == nil {
		dst.k.InitFuture(&tr.del)
		delivered = &tr.del
	}
	tr.injected, tr.delivered = &tr.tx, delivered
	return tr
}

// Injected returns the future that completes at local (injection)
// completion. It panics outside the sending event (see Transfer).
func (tr *Transfer) Injected() *sim.Future {
	tr.checkLent("Injected")
	return tr.injected
}

// Delivered returns the future that completes at delivery. It panics
// outside the sending event (see Transfer).
func (tr *Transfer) Delivered() *sim.Future {
	tr.checkLent("Delivered")
	return tr.delivered
}

// checkLent panics unless tr is live and its caller runs in the event
// that sent it.
func (tr *Transfer) checkLent(what string) {
	switch {
	case tr.dst == nil:
		panic(fmt.Sprintf("simnet: %s of released Transfer %d->%d (a transfer is lent for its sending event only)", what, tr.From, tr.To))
	case tr.net.nodes[tr.From].k.Fired() != tr.lent:
		panic(fmt.Sprintf("simnet: %s of Transfer %d->%d read after its sending event (keep a delivery with SendFlowTo)", what, tr.From, tr.To))
	}
}

// release returns a transfer at its last event to the pool of the LP
// running that event: the destination node's.
func (n *Network) release(tr *Transfer) {
	if tr.dst == nil {
		panic(fmt.Sprintf("simnet: Transfer %d->%d released twice", tr.From, tr.To))
	}
	sh := tr.dst.sh
	tr.injected, tr.delivered, tr.dst, tr.flow, tr.probed = nil, nil, nil, nil, false
	sh.transfers.Put(tr)
}

// LiveTransfers returns the number of transfers taken from the pools
// and not yet returned: zero once every sent message has been
// delivered. A transfer leaves the pool of its source LP and returns to
// that of its destination, so only the total over all LPs means
// anything. Read it after the run, not from inside one.
func (n *Network) LiveTransfers() int {
	live := 0
	for i := range n.shards {
		live += n.shards[i].transfers.Live()
	}
	return live
}

// Send moves size bytes from node `from` to node `to` and returns the
// transfer handle. Intra-node sends go through the node's memory engine;
// inter-node sends occupy the source tx port and the destination rx port
// concurrently (cut-through pipelining), so an uncontended transfer
// completes after latency + size/bandwidth.
func (n *Network) Send(from, to int, size int64) *Transfer {
	return n.SendFlowTo(nil, nil, from, to, size)
}

// SendFlow is Send with an explicit flow key: transfers sharing a flow
// are served in order, while distinct flows share each port fairly (see
// sim.Server). Rendezvous pipelines, RMA epochs and file-write bursts
// each form one flow.
func (n *Network) SendFlow(flow interface{}, from, to int, size int64) *Transfer {
	return n.SendFlowTo(nil, flow, from, to, size)
}

// SendFlowTo is SendFlow completing the caller's future delivered (on
// the destination node's kernel) as the transfer's Delivered, instead
// of one pooled inside the transfer, so the caller may keep it after
// the sending event. A nil delivered is SendFlow. The caller must be
// running on the source node's LP (all senders in this codebase are:
// ranks, engines and node-local services pin to their node's kernel).
// Intra-node sends stay on that LP; only the inter-node leg differs
// between a sequential and a partitioned network (startTx).
func (n *Network) SendFlowTo(delivered *sim.Future, flow interface{}, from, to int, size int64) *Transfer {
	if size < 0 {
		panic("simnet: negative transfer size")
	}
	if n.fluid != nil && size >= n.fluid.minBytes {
		return n.sendFluid(from, to, size, nil, delivered)
	}
	src, dst := &n.nodes[from], &n.nodes[to]
	tr := n.newTransfer(src, dst, flow, size, delivered)
	if from == to {
		observeSend(src, tr, probe.CauseIntra, &src.ipc)
		tr.injected = tr.delivered
		src.ipc.SubmitFlowAfterOnArriveTo(&tr.deliver, flow, n.cfg.IntraLatency, size, nil)
	} else {
		observeSend(src, tr, probe.CauseInter, &src.tx)
		// The join waits for the tx completion and the rx chain. The rx
		// chain is three zero-delay hops after the rx port: a delayed
		// submit forwards its completion once (sequential), an
		// immediate one not at all (partitioned).
		tr.pending, tr.hops = 2, 1
		if n.part != nil {
			tr.hops = 2
		}
		src.tx.SubmitFlowOnStartTo(&tr.tx, flow, size, &tr.txStart)
		if n.part == nil {
			tr.tx.Then(&tr.join)
		}
	}
	observeDeliver(dst, tr)
	return tr
}

// startTx runs when the source NIC starts transmitting an inter-node
// transfer. The first byte reaches the destination one wire latency
// later; tx and rx then stream concurrently (cut-through), so delivery
// completes when both ports have finished.
//
// On a sequential network the rx leg is a delayed submit on the
// destination port and the tx completion joins directly. Under
// partitioned execution the destination half lives on the destination
// LP, and the chain replicates the sequential one:
//
//   - The rx-leg submission crosses LPs at txStart+InterLatency >=
//     lookahead — the same After(InterLatency) hop the sequential path
//     schedules, so event keys and zero-delay hop depths line up and
//     the merged event order is bit-identical.
//   - The tx completion cannot join across LPs; instead the
//     destination joins the rx chain with a tx-completion stub.
//     Service times are deterministic here (no noise), so the tx leg's
//     completion instant txStart+d is known at transmission start and
//     can be sent ahead as a future-stamped event — precomputability
//     converts the tx-done edge's zero delay into usable lookahead. The
//     stub fires strictly before the rx leg finishes (rx starts one
//     latency later and serves at the same bandwidth), so Delivered
//     still completes at the rx instant with the sequential hop depth.
func (tr *Transfer) startTx() {
	n := tr.net
	lat := n.cfg.InterLatency
	if n.part == nil {
		tr.dst.rx.SubmitFlowAfterOnArriveTo(&tr.rxHop, tr.flow, lat, tr.Size, nil)
		return
	}
	if tr.stubFn == nil {
		tr.rxArriveFn, tr.stubFn = tr.rxArrive, tr.stub
	}
	src := &n.nodes[tr.From]
	txStart := src.k.Now()
	src.k.ScheduleRemote(tr.dst.lp, txStart+lat, tr.rxArriveFn)
	stubAt := txStart + src.tx.ServiceTime(tr.Size)
	if stubAt < txStart+lat {
		stubAt = txStart + lat
	}
	src.k.ScheduleRemote(tr.dst.lp, stubAt, tr.stubFn)
}

// rxArrive is a partitioned transfer's arrival on the destination LP:
// the rx leg enters the destination port.
func (tr *Transfer) rxArrive() {
	tr.dst.rx.SubmitFlowOnStartTo(&tr.rxHop, tr.flow, tr.Size, nil)
}

// hopRx is one zero-delay hop of the rx chain; the last one schedules
// the join.
func (tr *Transfer) hopRx() {
	k := tr.dst.k
	if tr.hops > 0 {
		tr.hops--
		k.AfterAction(0, &tr.rxHop)
		return
	}
	k.AfterAction(0, &tr.join)
}

// stub is a partitioned transfer's tx-completion stub on the
// destination LP.
func (tr *Transfer) stub() { tr.dst.k.AfterAction(0, &tr.join) }

// joinLeg counts one finished leg; the last completes Delivered.
func (tr *Transfer) joinLeg() {
	if tr.pending--; tr.pending > 0 {
		return
	}
	tr.complete()
}

// complete completes Delivered and, unless a probe's delivery record
// follows, returns the transfer to the pool.
func (tr *Transfer) complete() {
	tr.delivered.Complete()
	if !tr.probed {
		tr.net.release(tr)
	}
}

// sendFluid routes one bulk transfer through the fluid model: Injected
// completes when the flow's last byte has been transmitted under
// max-min fair sharing, Delivered one latency later (wire latency for
// inter-node flows, ipc latency for intra-node ones — the distinct
// intra-node link class). The flow key is irrelevant here — fair
// sharing is per-flow by construction — and probe emissions reuse the
// exact path's hooks (the queue-depth sample reads the idle server and
// reports 0).
func (n *Network) sendFluid(from, to int, size int64, marks []flowMark, delivered *sim.Future) *Transfer {
	src, dst := &n.nodes[from], &n.nodes[to]
	tr := n.newTransfer(src, dst, nil, size, delivered)
	if from == to {
		observeSend(src, tr, probe.CauseIntra, &src.ipc)
	} else {
		observeSend(src, tr, probe.CauseInter, &src.tx)
	}
	n.fluid.submit(tr, marks)
	observeDeliver(dst, tr)
	return tr
}

// SendFlowMilestones is SendFlow through the fluid model with progress
// milestones: the caller's future futs[i] completes one wire latency
// after the flow's cumulative transmitted bytes cross offsets[i]
// (ascending, each in (0, size]). The bundled cohort executor uses it
// to replay per-member completion instants out of one aggregate
// transfer. Requires ModelFlow (which is sequential-only) and an
// inter-node pair; unlike SendFlow there is no FlowMinBytes cutoff —
// the caller asked for fluid semantics explicitly.
func (n *Network) SendFlowMilestones(from, to int, size int64, offsets []int64, futs []*sim.Future) *Transfer {
	if n.fluid == nil {
		panic("simnet: SendFlowMilestones requires ModelFlow on a sequential network")
	}
	if from == to {
		panic("simnet: SendFlowMilestones requires an inter-node transfer")
	}
	if len(futs) != len(offsets) {
		panic("simnet: SendFlowMilestones needs one future per offset")
	}
	marks := make([]flowMark, len(offsets))
	prev := int64(0)
	for i, off := range offsets {
		if off <= 0 || off > size || off < prev {
			panic("simnet: SendFlowMilestones offsets must ascend within (0, size]")
		}
		prev = off
		marks[i] = flowMark{bytes: float64(off), fut: futs[i]}
	}
	return n.sendFluid(from, to, size, marks, nil)
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

// observeDeliver registers the transfer's delivery record on its
// completion future, emitting into the probe of the LP the completion
// fires on: the destination node's. The extra zero-delay step cannot
// reorder pre-existing kernel events (see package probe), so probing
// stays digest-invariant. With a probe attached the record is the
// transfer's last event, so it, not complete, returns the transfer to
// the pool. dst is the destination node.
func observeDeliver(dst *Node, tr *Transfer) {
	if dst.sh.probe == nil {
		return
	}
	tr.probed = true
	tr.delivered.Then(&tr.record)
}

// recordDeliver emits the delivery event and releases the transfer.
func (tr *Transfer) recordDeliver() {
	tr.dst.sh.probe.Emit(probe.Event{
		At: tr.dst.k.Now(), Layer: probe.LayerNet, Kind: probe.KindNetDeliver,
		Rank: tr.To, Peer: tr.From, Cycle: -1, Size: tr.Size,
	})
	tr.net.release(tr)
}

// MemcpyTo charges a memory copy of size bytes on node i — pack/unpack
// and collective-buffer assembly costs. done, which the caller owns,
// fires when the copy ends (sim.Server.SubmitFlowOnStartTo).
func (n *Network) MemcpyTo(done sim.Action, node int, size int64) {
	n.nodes[node].mem.SubmitFlowOnStartTo(done, nil, size, nil)
}

// TxServer exposes node i's injection port so that co-located services
// (e.g. node-local storage on the crill model) can share it.
func (n *Network) TxServer(node int) *sim.Server { return &n.nodes[node].tx }
