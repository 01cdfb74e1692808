package mpi

import (
	"fmt"
	"math/bits"
	"slices"

	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simnet"
)

// Internal tag space for collective operations. User tags must stay
// below tagInternalBase.
const (
	tagInternalBase = 1 << 28
	tagBarrier      = tagInternalBase + 0    // + round, dissemination barrier
	tagBcast        = tagInternalBase + 64   // binomial broadcast
	tagReduce       = tagInternalBase + 65   // binomial reduction
	tagRing         = tagInternalBase + 128  // + step, ring allgatherv
	tagAlltoall     = tagInternalBase + 896  // + round, Bruck all-to-all
	tagRMACtl       = tagInternalBase + 1024 // RMA lock/unlock control
)

// The collectives charge cost only: each sends the messages of its
// algorithm (sizes, tags, round order) with symbolic payloads and
// returns nothing. The collective-I/O engine already knows every value
// they would carry from its shared plan; only their timing and the
// synchronisation they impose shape a run. Each pattern is described
// once, as rounds of (peer distance, bytes): the doubling rounds of the
// dissemination ladder (Barrier and the Bruck all-to-alls) and the
// binomial tree (AllreduceSync), and the ring steps (AllgathervSync).
// The exact ranks send along those rounds; CostModel, the bundled
// executor's closed form, charges the same rounds.

// doublingRounds is the round count over p members, ceil(log2 p); in
// round i members dist = 2^i apart exchange size bytes.
func doublingRounds(p int) int { return bits.Len(uint(p - 1)) }

func doublingRound(i int, size int64) (dist int, bytes int64) { return 1 << i, size }

// ringRound is step s (of p-1) of the ring over p members: member
// sends its right neighbour (distance 1) the block member from began.
func ringRound(p, s, member int) (from int) { return (member - s + p) % p }

// Coll is one control collective: Rank.Collective runs it, CostModel.Cost
// is its closed form. Op is its span's cause: CauseAlltoall,
// CauseAllreduce, CauseAllgatherv, or else a Barrier.
type Coll struct {
	Op    probe.Cause
	Bytes int64             // all-to-all: per-pair entry; allreduce: the vector
	Block func(i int) int64 // allgatherv: rank i's block
	Group []int             // all-to-all among these ascending world ranks; nil: the world
}

// Collective runs c on the calling rank; every member passes the same c.
func (r *Rank) Collective(c Coll) {
	switch {
	case c.Op == probe.CauseAlltoall && c.Group != nil:
		r.AlltoallSyncAmong(c.Group, c.Bytes)
	case c.Op == probe.CauseAlltoall:
		r.AlltoallSync(c.Bytes)
	case c.Op == probe.CauseAllreduce:
		r.AllreduceSync(c.Bytes)
	case c.Op == probe.CauseAllgatherv:
		r.allgatherv(c.Block)
	default:
		r.Barrier()
	}
}

// Barrier blocks until every rank in the world has entered it.
// Implemented as a dissemination barrier: ceil(log2 P) rounds of 1-byte
// point-to-point messages, the standard cost shape for
// MPI_Barrier/MPI_Win_fence synchronisation on InfiniBand clusters.
func (r *Rank) Barrier() {
	r.ladder(probe.CauseBarrier, tagBarrier, r.id, r.w.cfg.NProcs, identityRank, 1)
}

// AlltoallSync charges the cost of a small personalised all-to-all
// (entryBytes per rank pair) with the Bruck algorithm: ceil(log2 P)
// rounds, each moving up to P/2 entries. The collective-write engine
// uses it for the per-cycle transfer-size exchange, which makes the
// cycle structure a de-facto global synchronisation point —
// load-bearing for the reproduced paper's baseline behaviour.
func (r *Rank) AlltoallSync(entryBytes int64) {
	p := r.w.cfg.NProcs
	r.ladder(probe.CauseAlltoall, tagAlltoall, r.id, p, identityRank, bruckRoundBytes(p, entryBytes))
}

// AlltoallSyncAmong is AlltoallSync restricted to a sub-group: only the
// listed ranks participate in the Bruck ladder, with peers resolved
// through the (ascending) ranks slice. The hierarchical collective-write
// family uses it for the per-cycle size exchange among node leaders,
// which replaces the world-wide exchange of the flat family. When ranks
// covers the whole world the event sequence is bit-identical to
// AlltoallSync — the degenerate one-rank-per-node topology therefore
// reproduces flat digests exactly. The caller must be one of ranks.
func (r *Rank) AlltoallSyncAmong(ranks []int, entryBytes int64) {
	idx := slices.Index(ranks, r.id)
	if idx < 0 {
		panic(fmt.Sprintf("mpi: rank %d called AlltoallSyncAmong without being in the group", r.id))
	}
	p := len(ranks)
	r.ladder(probe.CauseAlltoall, tagAlltoall, idx, p, func(i int) int { return ranks[i] }, bruckRoundBytes(p, entryBytes))
}

// bruckRoundBytes is the per-round message of a Bruck all-to-all over
// p members: up to p/2 entries, at least one.
func bruckRoundBytes(p int, entryBytes int64) int64 {
	return max(int64(p/2)*entryBytes, entryBytes)
}

func identityRank(i int) int { return i }

// ladder is the dissemination pattern behind Barrier and the Bruck
// all-to-alls: in each doubling round the caller sends to the member
// dist positions ahead and receives from the one dist behind. idx is
// the caller's position in a p-member group and rankOf maps positions
// to world ranks.
func (r *Rank) ladder(cause probe.Cause, tagBase, idx, p int, rankOf func(int) int, size int64) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindCollective, cause)()
	if p == 1 {
		r.p.Sleep(r.w.cfg.CallOverhead)
		return
	}
	for i := range doublingRounds(p) {
		k, bytes := doublingRound(i, size)
		sreq := r.Isend(rankOf((idx+k)%p), tagBase+i, Symbolic(bytes))
		rreq := r.Irecv(rankOf((idx-k+p)%p), tagBase+i, bytes, nil)
		r.Wait(sreq, rreq)
	}
}

// AllreduceSync charges the cost of an allreduce over a bytes-sized
// vector: a binomial-tree reduction to rank 0 followed by a binomial
// broadcast from it. An allgather of one value per rank costs the same
// as an allreduce over the P-vector.
func (r *Rank) AllreduceSync(bytes int64) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindCollective, probe.CauseAllreduce)()
	p := r.w.cfg.NProcs
	// Reduction over the doubling rounds: a rank receives from the peer
	// at each of its low unset bits, then sends once to the peer at its
	// lowest set bit.
	for i := range doublingRounds(p) {
		mask, size := doublingRound(i, bytes)
		if r.id&mask != 0 {
			r.Send(r.id&^mask, tagReduce, Symbolic(size))
			break
		}
		if peer := r.id | mask; peer < p {
			r.Recv(peer, tagReduce, size, nil)
		}
	}
	r.bcast(bytes)
}

// bcast is AllreduceSync's broadcast phase, a binomial tree from rank
// 0 over the doubling rounds with its own span: each other rank
// receives once, from the rank that differs in its lowest set bit, then
// forwards down the earlier rounds to every rank that would receive
// from it.
func (r *Rank) bcast(bytes int64) {
	defer r.span(probe.KindCollective, probe.CauseBcast)()
	p := r.w.cfg.NProcs
	if p == 1 {
		r.p.Sleep(r.w.cfg.CallOverhead)
		return
	}
	n, i := doublingRounds(p), 0
	for ; i < n; i++ {
		if mask, size := doublingRound(i, bytes); r.id&mask != 0 {
			r.Recv(r.id-mask, tagBcast, size, nil)
			break
		}
	}
	for i--; i >= 0; i-- {
		if mask, size := doublingRound(i, bytes); r.id+mask < p {
			r.Send(r.id+mask, tagBcast, Symbolic(size))
		}
	}
}

// AllgathervSync charges the cost of gathering sizes[i] bytes from
// every rank i with a ring: P-1 steps, each rank forwarding the newest
// block to its right neighbour. Every rank passes the same sizes.
func (r *Rank) AllgathervSync(sizes []int64) {
	r.allgatherv(func(i int) int64 { return sizes[i] })
}

// allgatherv is AllgathervSync's ring, rank i's block block(i) bytes.
func (r *Rank) allgatherv(block func(i int) int64) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindCollective, probe.CauseAllgatherv)()
	p := r.w.cfg.NProcs
	if p == 1 {
		r.p.Sleep(r.w.cfg.CallOverhead)
		return
	}
	right, left := (r.id+1)%p, (r.id-1+p)%p
	for s := range p - 1 {
		from := ringRound(p, s, r.id)
		sreq := r.Isend(right, tagRing+s, Symbolic(block(from)))
		rreq := r.Irecv(left, tagRing+s, block((from-1+p)%p), nil)
		r.Wait(sreq, rreq)
	}
}

// CostModel is the closed form of the control collectives on a quiet
// machine: a world of Config on a network of Net.
type CostModel struct {
	Config Config
	Net    simnet.Config
}

// Hop is the modelled cost of one control message between ranks dist
// apart: caller and handler software overheads, then the wire. Rank
// mapping is block, so peers closer than a node width are (for most
// ranks) node-local and pay the shared-memory latency and bandwidth.
func (m CostModel) Hop(bytes int64, dist int) sim.Time {
	base := 2*m.Config.CallOverhead + m.Config.HandlerCost
	if dist < m.Config.RanksPerNode {
		wire := float64(bytes) / m.Net.IntraBandwidth * 1e9
		return base + m.Net.IntraLatency + sim.Time(wire)
	}
	wire := float64(bytes+m.Config.CtrlBytes) / m.Net.InterBandwidth * 1e9
	return base + m.Net.InterLatency + sim.Time(wire)
}

// Cost is c's closed form. Doubling rounds wait on each other, so their
// hops stack: the ladder climbs them once, the allreduce's tree twice
// (reduce, then broadcast). The ring is self-clocked: the wire latency
// is paid once, then P-1 steps at the average block clocked by the
// slowest (inter-node) edge.
func (m CostModel) Cost(c Coll) sim.Time {
	p, rankOf, size, climbs := m.Config.NProcs, identityRank, int64(1), sim.Time(1)
	switch c.Op {
	case probe.CauseAlltoall:
		if c.Group != nil {
			p, rankOf = len(c.Group), func(i int) int { return c.Group[i] }
		}
		size = bruckRoundBytes(p, c.Bytes)
	case probe.CauseAllreduce:
		size, climbs = c.Bytes, 2
	case probe.CauseAllgatherv:
		var total int64
		for i := 0; i < p; i++ {
			total += c.Block(i)
		}
		lat := m.Net.InterLatency
		step := m.Hop(total/int64(p), m.Config.RanksPerNode) - lat
		return lat + sim.Time(p-1)*step
	}
	var t sim.Time
	for i := range doublingRounds(p) {
		k, bytes := doublingRound(i, size)
		t += m.Hop(bytes, rankOf(k)-rankOf(0))
	}
	return climbs * t
}
