package mpi

import (
	"fmt"

	"collio/internal/probe"
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
// synchronisation they impose shape a run. There is one implementation
// per communication pattern: a dissemination ladder (Barrier and the
// Bruck all-to-alls), a binomial tree (AllreduceSync) and a ring
// (AllgathervSync).

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
	r.ladder(probe.CauseAlltoall, tagAlltoall, r.id, p, identityRank, BruckRoundBytes(p, entryBytes))
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
	idx := -1
	for i, rk := range ranks {
		if rk == r.id {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("mpi: rank %d called AlltoallSyncAmong without being in the group", r.id))
	}
	p := len(ranks)
	r.ladder(probe.CauseAlltoall, tagAlltoall, idx, p, func(i int) int { return ranks[i] }, BruckRoundBytes(p, entryBytes))
}

// BruckRoundBytes is the per-round message of a Bruck all-to-all over
// p members: up to p/2 entries, at least one. The bundled executor's
// closed-form cost of the same exchange charges it too.
func BruckRoundBytes(p int, entryBytes int64) int64 {
	return max(int64(p/2)*entryBytes, entryBytes)
}

func identityRank(i int) int { return i }

// ladder is the dissemination pattern behind Barrier and the Bruck
// all-to-alls: in round k the caller sends size bytes to the member k
// positions ahead and receives from the one k behind. idx is the
// caller's position in a p-member group and rankOf maps positions to
// world ranks.
func (r *Rank) ladder(cause probe.Cause, tagBase, idx, p int, rankOf func(int) int, size int64) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindCollective, cause)()
	if p == 1 {
		r.p.Sleep(r.w.cfg.CallOverhead)
		return
	}
	round := 0
	for k := 1; k < p; k <<= 1 {
		sreq := r.Isend(rankOf((idx+k)%p), tagBase+round, Symbolic(size))
		rreq := r.Irecv(rankOf((idx-k+p)%p), tagBase+round, size, nil)
		r.Wait(sreq, rreq)
		round++
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
	// Reduction: a rank receives from the peer at each of its low unset
	// bits, then sends once to the peer at its lowest set bit.
	for mask := 1; mask < p; mask <<= 1 {
		if r.id&mask != 0 {
			r.Send(r.id&^mask, tagReduce, Symbolic(bytes))
			break
		}
		if peer := r.id | mask; peer < p {
			r.Recv(peer, tagReduce, bytes, nil)
		}
	}
	r.bcast(bytes)
}

// bcast is AllreduceSync's broadcast phase, a binomial tree from rank
// 0 with its own span: each other rank receives once, from the rank
// that differs in its lowest set bit, then forwards to every rank that
// would receive from it.
func (r *Rank) bcast(bytes int64) {
	defer r.span(probe.KindCollective, probe.CauseBcast)()
	p := r.w.cfg.NProcs
	if p == 1 {
		r.p.Sleep(r.w.cfg.CallOverhead)
		return
	}
	mask := 1
	for ; mask < p; mask <<= 1 {
		if r.id&mask != 0 {
			r.Recv(r.id-mask, tagBcast, bytes, nil)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r.id+mask < p {
			r.Send(r.id+mask, tagBcast, Symbolic(bytes))
		}
	}
}

// AllgathervSync charges the cost of gathering sizes[i] bytes from
// every rank i with a ring: P-1 steps, each rank forwarding the newest
// block to its right neighbour. Every rank passes the same sizes.
func (r *Rank) AllgathervSync(sizes []int64) {
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
	for s := 0; s < p-1; s++ {
		sreq := r.Isend(right, tagRing+s, Symbolic(sizes[(r.id-s+p)%p]))
		rreq := r.Irecv(left, tagRing+s, sizes[(r.id-s-1+p)%p], nil)
		r.Wait(sreq, rreq)
	}
}
