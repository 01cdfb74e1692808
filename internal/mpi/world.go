// Package mpi implements a message-passing runtime with MPI semantics on
// top of the discrete-event simulation kernel. It is the substitute for
// Open MPI + UCX in the reproduced paper: ranks are simulated processes,
// point-to-point transfers follow an eager/rendezvous protocol with an
// unexpected-message queue, collectives are built from point-to-point
// messages, and one-sided communication (Put with fence or lock/unlock
// synchronisation) maps onto RDMA-style transfers that bypass the target
// process.
//
// The runtime reproduces the progress behaviour the paper's analysis
// depends on: protocol actions on behalf of a rank (matching, rendezvous
// handshakes, completion detection) only happen while that rank is inside
// an MPI call, unless a progress thread is configured. A rank blocked in
// a POSIX-style file write therefore stalls rendezvous transfers
// addressed to it — the very effect that separates the paper's overlap
// algorithms.
package mpi

import (
	"fmt"

	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simnet"
)

// Config holds the tunables of the MPI runtime.
type Config struct {
	// NProcs is the number of ranks.
	NProcs int
	// RanksPerNode controls the block mapping of ranks onto nodes
	// (ranks r*RanksPerNode .. (r+1)*RanksPerNode-1 share node r).
	RanksPerNode int
	// EagerLimit is the message size (bytes) at and above which the
	// rendezvous protocol is used. The paper's platform switches at
	// 512 KiB (Open MPI master + UCX 1.6.1 on InfiniBand).
	EagerLimit int64
	// CallOverhead is the fixed software cost charged for entering an
	// MPI operation.
	CallOverhead sim.Time
	// MatchCost is the cost per queue entry scanned during message
	// matching (posted-receive or unexpected-message queue).
	MatchCost sim.Time
	// HandlerCost is the fixed cost to process one incoming protocol
	// packet.
	HandlerCost sim.Time
	// CtrlBytes is the wire size of a protocol control message
	// (RTS/CTS/lock traffic).
	CtrlBytes int64
	// RMAAgentDelay is the processing time of one lock/unlock request
	// at the target's passive-target RMA agent. The agent runs
	// asynchronously to the target process but serialises requests:
	// with many concurrent origins (fragmented workloads at scale) the
	// agent queue becomes the lock variant's bottleneck.
	RMAAgentDelay sim.Time
	// PutOverhead is the origin-side software cost of issuing one Put.
	// It is lower than send/recv costs because no matching occurs.
	PutOverhead sim.Time
	// RendezvousChunk is the pipeline granularity of rendezvous bulk
	// transfers: after each chunk, the receiver's progress engine must
	// act before the next chunk moves. Zero disables pipelining
	// (single-shot hardware transfer).
	RendezvousChunk int64
	// RendezvousDepth is the number of pipeline chunks in flight per
	// transfer (registration-pipeline depth). Higher depth keeps the
	// wire busier and tolerates brief receiver absence; progress still
	// stalls once the window drains while the receiver is out of MPI.
	RendezvousDepth int
	// FenceCost is the per-call overhead of MPI_Win_fence beyond the
	// barrier: closing an exposure epoch requires window-wide
	// completion accounting (reduce-scatter of RMA counts and remote
	// flushes in real implementations), which is why the paper calls
	// fence "an expensive operation" (§III-B.2a).
	FenceCost sim.Time
	// CombinePerOp is the per-fragment software cost a node leader pays
	// to merge one member request into a combined inter-node message
	// during the hierarchical pre-combine phase (request-list walk and
	// header bookkeeping; the byte-moving cost is charged separately at
	// memory bandwidth). Only the hierarchical algorithm family charges
	// it, so flat-aggregation runs are unaffected by its value.
	CombinePerOp sim.Time
	// ProgressThread, when true, lets protocol handling proceed even
	// while the owning rank is outside MPI (models an asynchronous
	// progress thread).
	ProgressThread bool
}

// DefaultConfig returns a configuration with calibration-neutral
// defaults; platform models override the performance-relevant fields.
func DefaultConfig(nprocs, ranksPerNode int) Config {
	return Config{
		NProcs:        nprocs,
		RanksPerNode:  ranksPerNode,
		EagerLimit:    512 << 10,
		CallOverhead:  300 * sim.Nanosecond,
		MatchCost:     60 * sim.Nanosecond,
		HandlerCost:   150 * sim.Nanosecond,
		CtrlBytes:     64,
		RMAAgentDelay: 3 * sim.Microsecond,
		PutOverhead:   150 * sim.Nanosecond,
		// 1 MiB pipeline chunks at depth 4, the registration-pipeline
		// shape of UCX-era rendezvous implementations.
		RendezvousChunk: 1 << 20,
		RendezvousDepth: 4,
		FenceCost:       250 * sim.Microsecond,
		CombinePerOp:    400 * sim.Nanosecond,
	}
}

func (c *Config) validate(nodes int) error {
	if c.NProcs <= 0 {
		return fmt.Errorf("mpi: NProcs must be positive, got %d", c.NProcs)
	}
	if c.RanksPerNode <= 0 {
		return fmt.Errorf("mpi: RanksPerNode must be positive, got %d", c.RanksPerNode)
	}
	need := (c.NProcs + c.RanksPerNode - 1) / c.RanksPerNode
	if need > nodes {
		return fmt.Errorf("mpi: %d ranks at %d per node need %d nodes, network has %d",
			c.NProcs, c.RanksPerNode, need, nodes)
	}
	return nil
}

// World is a set of ranks sharing one network and one configuration —
// the equivalent of MPI_COMM_WORLD.
type World struct {
	k     *sim.Kernel
	net   *simnet.Network
	cfg   Config
	ranks []*Rank

	windows []*Window
	started bool

	// shards holds each LP's host state (one for a sequential world,
	// one per node LP when partitioned), so ranks on different LPs never
	// share a mutable field.
	shards []lpShard
}

// lpShard is one LP's MPI-layer host state, padded so adjacent shards
// never share a cache line under concurrent window execution.
//
// probe is the LP's sink (SetProbe). Every MPI-layer emission happens
// in the context of the rank it concerns (its LP), so routing each
// rank's events to its LP's sink keeps emission single-writer; the
// canonical fold (probe.MergeShards) restores sequential order.
//
// reqs pools Request objects: the point-to-point layer turns over one
// request per operation, and at multi-thousand-rank scale those
// allocations dominate the model-layer heap churn. Requests return to
// the pool in Wait (after their future has completed). msgs pools the
// protocol messages (msg), which leave the sender's LP pool and return
// to the consuming engine's; puts the put completions (putDone), which
// return at their epoch's close. An LP's ranks are serialised by its
// kernel, so the pools need no locking — the same discipline as the
// kernel's request pool. Their live counts sum to World.LivePooled.
type lpShard struct {
	probe *probe.Probe
	reqs  sim.Pool[Request]
	msgs  sim.Pool[msg]
	puts  sim.Pool[putDone]
	_     [24]byte
}

// newLPShard returns an LP shard with empty pools whose slabs bind
// every message's and put completion's actions.
func newLPShard() lpShard {
	return lpShard{
		reqs: sim.NewPool(func(q *Request) **Request { return &q.next }, nil),
		msgs: sim.NewPool(func(m *msg) **msg { return &m.next }, func(m *msg) {
			m.onArrive = sim.NewEvent(m, (*msg).arrive)
			m.onServed = sim.NewEvent(m, (*msg).served)
			m.onRun = sim.NewEvent(m, (*msg).run)
			m.onCopied = sim.NewEvent(m, (*msg).copied)
		}),
		puts: sim.NewPool(func(p *putDone) **putDone { return &p.next }, func(p *putDone) {
			p.onCopy = sim.NewEvent(p, (*putDone).copy)
		}),
	}
}

// newRequest takes a zeroed request from the rank's LP pool. The caller
// fills in the operation fields and binds the embedded future
// (Kernel.InitFuture).
func (r *Rank) newRequest() *Request { return r.sh.reqs.Get() }

// releaseRequest clears a request's references and returns it to the
// rank's LP pool. Callers guarantee the protocol engine holds no live
// reference: sends are only released after local completion (and the
// rendezvous path snapshots what it needs into rdvState), receives only
// after delivery.
func (r *Rank) releaseRequest(q *Request) {
	*q = Request{}
	r.sh.reqs.Put(q)
}

// LivePooled returns the number of requests, protocol messages and put
// completions taken from the pools and not yet returned, over all LPs:
// all are zero after a run in which every request was waited, every
// message consumed and every put closed by its epoch. Read it after
// the run, not from inside one.
func (w *World) LivePooled() (requests, msgs, puts int) {
	for i := range w.shards {
		sh := &w.shards[i]
		requests += sh.reqs.Live()
		msgs += sh.msgs.Live()
		puts += sh.puts.Live()
	}
	return requests, msgs, puts
}

// NewWorld creates the rank set. Ranks do not run until Launch. Each
// rank lives on its node's LP (see simnet.Network.LPFor).
func NewWorld(k *sim.Kernel, net *simnet.Network, cfg Config) (*World, error) {
	if err := cfg.validate(net.NumNodes()); err != nil {
		return nil, err
	}
	// The rendezvous chunk pump round-trips through the receiver's
	// progress engine with a 150 ns handler delay — far inside any
	// realistic lookahead window — so pipelining must be disabled
	// (single-shot hardware transfers) before partitioning.
	if net.Partition() != nil && cfg.RendezvousChunk > 0 {
		return nil, fmt.Errorf("mpi: partitioned execution requires RendezvousChunk <= 0 (pipelining couples LPs below the lookahead)")
	}
	w := &World{k: k, net: net, cfg: cfg, shards: make([]lpShard, net.NumLPs())}
	for i := range w.shards {
		w.shards[i] = newLPShard()
	}
	// A world is built per run, so its ranks, their engines and the
	// first slots of each engine's match queues come from one slab
	// each rather than a few allocations per rank.
	n := cfg.NProcs
	ranks, engs := make([]Rank, n), make([]engine, n)
	posted, unexp, rts := make([]*Request, n*queueSlots), make([]*msg, n*queueSlots), make([]*msg, n*queueSlots)
	w.ranks = make([]*Rank, n)
	for i := range ranks {
		r := &ranks[i]
		r.w, r.id, r.node = w, i, i/cfg.RanksPerNode
		r.k = net.KernelFor(r.node)
		r.sh = &w.shards[net.LPFor(r.node)]
		k.InitServer(&r.rmaAgent, 0, cfg.RMAAgentDelay)
		lo, hi := i*queueSlots, (i+1)*queueSlots
		engs[i] = engine{r: r, posted: posted[lo:lo:hi], unexpected: unexp[lo:lo:hi], pendingRTS: rts[lo:lo:hi]}
		r.eng = &engs[i]
		w.ranks[i] = r
	}
	k.Explain(w.OpenEpochs)
	return w, nil
}

// SetProbe attaches LP lp's observability probe (nil detaches): the
// MPI-layer events of the ranks on that LP go to p. A sequential world
// is one LP (lp 0); a partitioned one has node i's ranks on LP i, and
// an LP hosting no rank (external storage) has no MPI sink. Probing
// only observes protocol state; it must never change rank timing.
func (w *World) SetProbe(lp int, p *probe.Probe) {
	if lp < len(w.shards) {
		w.shards[lp].probe = p
	}
}

// Network returns the interconnect.
func (w *World) Network() *simnet.Network { return w.net }

// Config returns the runtime configuration.
func (w *World) Config() Config { return w.cfg }

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.NProcs }

// Launch starts every rank running body. Call kernel.Run afterwards;
// Elapsed reports when the slowest rank finished.
func (w *World) Launch(body func(r *Rank)) {
	if w.started {
		panic("mpi: World launched twice")
	}
	w.started = true
	for _, r := range w.ranks {
		r := r
		// Each rank spawns on its own LP's kernel (the shared kernel in a
		// sequential run) and records its finish on itself, so partitioned
		// windows never contend on world-wide finish bookkeeping.
		r.p = r.k.Spawn("rank", r.id, func(p *sim.Proc) {
			body(r)
			r.fin = true
			r.finAt = p.Now()
		})
	}
}

// Elapsed returns the virtual time at which the last rank finished. It
// is valid after kernel.Run (or Partition.Run) has returned.
func (w *World) Elapsed() sim.Time {
	finished, finishAt := 0, sim.Time(0)
	for _, r := range w.ranks {
		if r.fin {
			finished++
			if r.finAt > finishAt {
				finishAt = r.finAt
			}
		}
	}
	if finished != w.cfg.NProcs {
		panic(fmt.Sprintf("mpi: Elapsed called with %d/%d ranks finished", finished, w.cfg.NProcs))
	}
	return finishAt
}

// Rank is one simulated MPI process.
type Rank struct {
	w    *World
	id   int
	node int
	k    *sim.Kernel // the node's LP kernel; the shared kernel sequentially
	sh   *lpShard    // the node's LP host state
	p    *sim.Proc
	eng  *engine

	fin   bool     // body returned (per-rank so LPs don't contend)
	finAt sim.Time // virtual finish time

	winCalls int        // WinAllocate call counter (collective-order matching)
	rmaAgent sim.Server // passive-target RMA agent (lock/unlock serialisation)
	// rmaCtl is the lock grant of WinLock and the unlock ack of
	// WinUnlock: both block until it completes, so one is live at a time.
	rmaCtl sim.Future
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Node returns the compute node this rank runs on.
func (r *Rank) Node() int { return r.node }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.cfg.NProcs }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Kernel returns the kernel this rank's events run on: its node's LP
// kernel under partitioned execution, the shared kernel otherwise.
// Completion callbacks registered from rank context must read time from
// this kernel, not the world's.
func (r *Rank) Kernel() *sim.Kernel { return r.k }

// LP returns the index of the logical process this rank runs on: its
// node under partitioned execution, 0 on a sequential world. Upper
// layers index their per-LP sinks with it.
func (r *Rank) LP() int { return r.w.net.LPFor(r.node) }

// probeSink returns the probe this rank's events are emitted into: its
// LP's.
func (r *Rank) probeSink() *probe.Probe { return r.sh.probe }

// Proc returns the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.p }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Compute advances the rank by d outside the MPI library: no protocol
// progress happens on this rank's behalf during the interval (unless a
// progress thread is configured).
func (r *Rank) Compute(d sim.Time) { r.p.Sleep(d) }

// EnterMPI / ExitMPI expose the progress scope for composite operations
// (the collective-write engine holds the rank inside MPI for the whole
// collective except during blocking file writes).
func (r *Rank) EnterMPI() { r.eng.enter() }
func (r *Rank) ExitMPI()  { r.eng.exit() }

// InMPI reports whether the rank is currently inside the MPI library.
func (r *Rank) InMPI() bool { return r.eng.inMPI > 0 }

var probeNop = func() {}

// span opens a probe span of the given kind/cause on this rank and
// returns the closer; call sites use `defer r.span(kind, cause)()`.
// With no probe attached this is a shared no-op closure — no per-call
// allocation beyond the defer itself.
func (r *Rank) span(kind probe.Kind, cause probe.Cause) func() {
	p := r.probeSink()
	if p == nil {
		return probeNop
	}
	t0 := r.Now()
	return func() {
		p.Emit(probe.Event{
			At: t0, Dur: r.Now() - t0, Layer: probe.LayerMPI,
			Kind: kind, Cause: cause, Rank: r.id, Peer: -1, Cycle: -1,
		})
	}
}
