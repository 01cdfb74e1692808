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

// Node is one compute node's network endpoints.
type Node struct {
	ID  int
	tx  sim.Server
	rx  sim.Server
	ipc sim.Server
	mem sim.Server
}

// Network is the instantiated interconnect.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	nodes []Node

	// probe is the network's sink (SetSinks).
	probe *probe.Probe
	// transfers pools the Transfers. Every message, RMA put and
	// rendezvous chunk turns over one, and at multi-thousand-rank scale
	// those allocations dominate the network layer's heap churn. Its
	// live count is LiveTransfers.
	transfers sim.Pool[Transfer]

	// fluid is the max-min fair solver bulk transfers ride under
	// ModelFlow (nil under ModelChunked).
	fluid *fluidNet
}

// New builds a network on kernel k from cfg.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("simnet: Config.Nodes must be positive")
	}
	n := &Network{k: k, cfg: cfg}
	n.transfers = sim.NewPool(func(tr *Transfer) **Transfer { return &tr.next }, func(tr *Transfer) {
		tr.net = n
		tr.txStart = sim.NewEvent(tr, (*Transfer).startTx)
		tr.rxHop = sim.NewEvent(tr, (*Transfer).hopRx)
		tr.join = sim.NewEvent(tr, (*Transfer).joinLeg)
		tr.deliver = sim.NewEvent(tr, (*Transfer).complete)
		tr.record = sim.NewEvent(tr, (*Transfer).recordDeliver)
	})
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
		nd.ID = i
		k.InitServer(&nd.tx, cfg.InterBandwidth, 0)
		k.InitServer(&nd.rx, cfg.InterBandwidth, 0)
		k.InitServer(&nd.ipc, cfg.IntraBandwidth, 0)
		k.InitServer(&nd.mem, cfg.MemBandwidth, 0)
		if cfg.LinkNoise != nil {
			nd.tx.Noise = noise
			nd.rx.Noise = noise
		}
	}
	return n
}

// SetSinks attaches the network's observability sinks (nil detaches):
// probe p receives its send and delivery events, and metrics m the
// tx/rx link-utilisation series of every node. Sinks only observe:
// recording is host-side appends at instants the simulator already
// visits, so timing and digests are unchanged.
func (n *Network) SetSinks(p *probe.Probe, m *metrics.Metrics) {
	n.probe = p
	for i := range n.nodes {
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
// network returns the transfer to its pool at its last event —
// Delivered's completion, or with a probe the delivery record one hop
// later — and the next Send reuses it, futures included. A caller that
// must keep the delivery completion past the sending event passes its
// own future to SendFlowTo.
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
	// lent is the kernel's Fired count in the sending event.
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

	next *Transfer // pool link, nil while the handle is live
}

// newTransfer takes a transfer from the pool. delivered, when non-nil,
// is the caller's delivery future.
func (n *Network) newTransfer(src, dst *Node, flow interface{}, size int64, delivered *sim.Future) *Transfer {
	tr := n.transfers.Get()
	tr.Size, tr.From, tr.To = size, src.ID, dst.ID
	tr.dst, tr.flow, tr.lent = dst, flow, n.k.Fired()
	n.k.InitFuture(&tr.tx)
	if delivered == nil {
		n.k.InitFuture(&tr.del)
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
	case tr.net.k.Fired() != tr.lent:
		panic(fmt.Sprintf("simnet: %s of Transfer %d->%d read after its sending event (keep a delivery with SendFlowTo)", what, tr.From, tr.To))
	}
}

// release returns a transfer to the pool at its last event.
func (n *Network) release(tr *Transfer) {
	if tr.dst == nil {
		panic(fmt.Sprintf("simnet: Transfer %d->%d released twice", tr.From, tr.To))
	}
	tr.injected, tr.delivered, tr.dst, tr.flow, tr.probed = nil, nil, nil, nil, false
	n.transfers.Put(tr)
}

// LiveTransfers returns the number of transfers taken from the pool and
// not yet returned: zero once every sent message has been delivered.
// Read it after the run, not from inside one.
func (n *Network) LiveTransfers() int { return n.transfers.Live() }

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

// SendFlowTo is SendFlow completing the caller's future delivered as
// the transfer's Delivered, instead
// of one pooled inside the transfer, so the caller may keep it after
// the sending event. A nil delivered is SendFlow.
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
		n.observeSend(tr, probe.CauseIntra, &src.ipc)
		tr.injected = tr.delivered
		src.ipc.SubmitFlowAfterOnArriveTo(&tr.deliver, flow, n.cfg.IntraLatency, size, nil)
	} else {
		n.observeSend(tr, probe.CauseInter, &src.tx)
		// The join waits for the tx completion and the rx chain, three
		// zero-delay hops after the rx port: the delayed submit forwards
		// its completion once, and hops counts the rest.
		tr.pending, tr.hops = 2, 1
		src.tx.SubmitFlowOnStartTo(&tr.tx, flow, size, &tr.txStart)
		tr.tx.Then(&tr.join)
	}
	n.observeDeliver(tr)
	return tr
}

// startTx runs when the source NIC starts transmitting an inter-node
// transfer. The first byte reaches the destination one wire latency
// later; tx and rx then stream concurrently (cut-through), so delivery
// completes when both ports have finished: the rx leg is a delayed
// submit on the destination port, and the tx completion joins directly.
func (tr *Transfer) startTx() {
	tr.dst.rx.SubmitFlowAfterOnArriveTo(&tr.rxHop, tr.flow, tr.net.cfg.InterLatency, tr.Size, nil)
}

// hopRx is one zero-delay hop of the rx chain; the last one schedules
// the join.
func (tr *Transfer) hopRx() {
	k := tr.net.k
	if tr.hops > 0 {
		tr.hops--
		k.AfterAction(0, &tr.rxHop)
		return
	}
	k.AfterAction(0, &tr.join)
}

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
		n.observeSend(tr, probe.CauseIntra, &src.ipc)
	} else {
		n.observeSend(tr, probe.CauseInter, &src.tx)
	}
	n.fluid.submit(tr, marks)
	n.observeDeliver(tr)
	return tr
}

// SendFlowMilestones is SendFlow through the fluid model with progress
// milestones: the caller's future futs[i] completes one wire latency
// after the flow's cumulative transmitted bytes cross offsets[i]
// (ascending, each in (0, size]). The bundled cohort executor uses it
// to replay per-member completion instants out of one aggregate
// transfer. Requires ModelFlow and an
// inter-node pair; unlike SendFlow there is no FlowMinBytes cutoff —
// the caller asked for fluid semantics explicitly.
func (n *Network) SendFlowMilestones(from, to int, size int64, offsets []int64, futs []*sim.Future) *Transfer {
	if n.fluid == nil {
		panic("simnet: SendFlowMilestones requires ModelFlow")
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

// observeSend emits the submit-time events for one transfer: the send
// itself plus an injection-port occupancy sample (depth before this
// request joins the queue).
func (n *Network) observeSend(tr *Transfer, path probe.Cause, port *sim.Server) {
	p := n.probe
	if p == nil {
		return
	}
	now := n.k.Now()
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
// completion future. The extra zero-delay step cannot reorder
// pre-existing kernel events (see package probe), so probing stays
// digest-invariant. With a probe attached the record is the transfer's
// last event, so it, not complete, returns the transfer to the pool.
func (n *Network) observeDeliver(tr *Transfer) {
	if n.probe == nil {
		return
	}
	tr.probed = true
	tr.delivered.Then(&tr.record)
}

// recordDeliver emits the delivery event and releases the transfer.
func (tr *Transfer) recordDeliver() {
	tr.net.probe.Emit(probe.Event{
		At: tr.net.k.Now(), Layer: probe.LayerNet, Kind: probe.KindNetDeliver,
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
