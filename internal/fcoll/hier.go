package fcoll

import (
	"sort"

	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
)

// This file implements the hierarchical (two-level) collective-write
// family: node-aware aggregator selection, an intra-node pre-combine
// phase, and a leaders-only per-cycle size exchange. The flat two-phase
// machinery — cycles, sub-buffers, the five overlap algorithms — is
// unchanged; the hierarchy only reroutes *small* shuffle messages:
//
//   - Every sub-eager-limit request of a non-leader ("member") rank is
//     shipped to its node leader at intra-node bandwidth, merged with
//     the other members' requests for the same aggregator, and
//     forwarded as one combined inter-node message per (node,
//     aggregator) pair — one wire message and one matching-queue entry
//     where the flat family pays one per member.
//   - Requests at or above the eager limit keep the flat direct path:
//     they are rendezvous-protected bandwidth-bound transfers for which
//     a store-and-forward hop through the leader would only add a full
//     extra copy at intra-node bandwidth.
//   - A leader's own requests always go direct, interleaved exactly as
//     the flat family sends them. This is what makes the degenerate
//     one-rank-per-node topology (everyone a leader, no members)
//     bit-identical to the flat family.
//   - The per-cycle transfer-size exchange runs among node leaders only
//     (mpi.AlltoallSyncAmong); members are throttled by a per-cycle
//     one-byte credit from their leader instead, so their eager intra-
//     node traffic cannot run ahead and flood the leader's unexpected
//     queue.
//
// All routing decisions are functions of the shared plan, so every rank
// derives the same hierarchy without extra metadata exchange.

// Message-tag offsets within one collective's TagBase stride. The mpiio
// layer allocates 1<<20 tags per collective (file.go) and cycle indices
// stay far below 1<<18, so the four classes — flat/direct data (offset
// 0), combined leader→aggregator messages, member→leader intra-node
// payloads, leader→member credits — can never collide on a (source,
// tag) pair even when one rank plays several roles toward the same
// peer in the same cycle.
const (
	tagOffComb   = 1 << 18 // leader → aggregator combined messages
	tagOffIntra  = 2 << 18 // member → leader pre-combine payloads
	tagOffCredit = 3 << 18 // leader → member flow-control credits
)

// combOp is one combined inter-node message: all sub-threshold traffic
// from one node's members to one aggregator in one cycle. Its merged
// window-relative target ranges live in hierPlan.segs at [seg0,
// seg0+nseg) and its member fragments (in window order, the message's
// packing order) in hierPlan.srcs at [src0, src0+nsrc).
type combOp struct {
	node  int32
	agg   int32 // aggregator index (into plan.aggRanks)
	cycle int32
	seg0  int32
	nseg  int32
	src0  int32
	nsrc  int32
	total int64
}

// combSrc is one member fragment inside a combined message: len bytes
// starting at offset moff of the member's intra-node payload for the
// cycle.
type combSrc struct {
	member int32 // world rank
	moff   int64
	len    int64
}

// hierPlan is the hierarchical routing overlay on a plan, CSR-style
// like the plan itself: combOps are stored grouped by (node, cycle)
// bucket (leadIdx) with a second index by (aggregator, cycle)
// (aggIdx/aggList) for the receive side.
type hierPlan struct {
	rpn     int
	thr     int64 // requests below this route through the node leader
	nnodes  int
	ncycles int
	leaders []int // world ranks of the occupied nodes' leaders, ascending

	combOps []combOp
	leadIdx []int32 // len nnodes*ncycles+1: combOps CSR by (node, cycle)
	aggIdx  []int32 // len na*ncycles+1: CSR into aggList
	aggList []int32 // combOp indices by (aggregator, cycle)
	segs    []seg   // merged window-relative target ranges
	srcs    []combSrc

	intraBytes []int64 // len np*ncycles: member's routed bytes per cycle
}

func (h *hierPlan) segsOf(co *combOp) []seg     { return h.segs[co.seg0 : co.seg0+co.nseg] }
func (h *hierPlan) srcsOf(co *combOp) []combSrc { return h.srcs[co.src0 : co.src0+co.nsrc] }
func (h *hierPlan) isLeader(rank int) bool      { return rank%h.rpn == 0 }
func (h *hierPlan) leaderOf(rank int) int       { return rank - rank%h.rpn }
func (h *hierPlan) intraBytesOf(m, c int) int64 { return h.intraBytes[m*h.ncycles+c] }

// routed reports whether the flat op (total bytes from world rank src)
// travels inside a combined message instead of directly.
func (h *hierPlan) routed(total int64, src int) bool {
	return total < h.thr && src%h.rpn != 0
}

// combsAtNode returns the combined messages node n's leader forwards in
// cycle c.
func (h *hierPlan) combsAtNode(n, c int) []combOp {
	b := n*h.ncycles + c
	return h.combOps[h.leadIdx[b]:h.leadIdx[b+1]]
}

// combsAtAgg returns the indices (into combOps) of the combined
// messages aggregator a receives in cycle c.
func (h *hierPlan) combsAtAgg(a, c int) []int32 {
	b := a*h.ncycles + c
	return h.aggList[h.aggIdx[b]:h.aggIdx[b+1]]
}

// hfrag is builder scratch: one window-contiguous piece of a member's
// routed traffic, before grouping into combined messages.
type hfrag struct {
	agg    int32
	woff   int64
	len    int64
	member int32
	moff   int64
}

// buildHierPlan derives the routing overlay from the finished flat
// arenas. Host-side, cached with the plan.
func buildHierPlan(p *plan, rpn int, thr int64) *hierPlan {
	np, nc := p.np, p.ncycles
	nnodes := (np + rpn - 1) / rpn
	h := &hierPlan{rpn: rpn, thr: thr, nnodes: nnodes, ncycles: nc}
	for r := 0; r < np; r += rpn {
		h.leaders = append(h.leaders, r)
	}
	h.intraBytes = make([]int64, np*nc)
	h.leadIdx = make([]int32, nnodes*nc+1)
	var frags []hfrag // reused per (node, cycle) bucket
	for n := 0; n < nnodes; n++ {
		lo, hi := n*rpn+1, (n+1)*rpn
		if hi > np {
			hi = np
		}
		for c := 0; c < nc; c++ {
			frags = frags[:0]
			for m := lo; m < hi; m++ {
				// moff doubles as the member's intra-payload cursor: the
				// payload is the routed ops' packed bytes in plan order.
				var moff int64
				sends := p.sendsAt(m, c)
				for i := range sends {
					so := &sends[i]
					if so.total >= thr {
						continue
					}
					for _, ws := range p.wsegsOf(so) {
						frags = append(frags, hfrag{agg: so.agg, woff: ws.off, len: ws.len, member: int32(m), moff: moff})
						moff += ws.len
					}
				}
				h.intraBytes[m*nc+c] = moff
			}
			if len(frags) > 0 {
				// Window offsets are disjoint within an (aggregator,
				// cycle) window and each member has at most one op per
				// bucket, so (agg, woff) is a strict order — the sort is
				// deterministic.
				sort.Slice(frags, func(i, j int) bool {
					if frags[i].agg != frags[j].agg {
						return frags[i].agg < frags[j].agg
					}
					return frags[i].woff < frags[j].woff
				})
				for i := 0; i < len(frags); {
					co := combOp{node: int32(n), agg: frags[i].agg, cycle: int32(c),
						seg0: int32(len(h.segs)), src0: int32(len(h.srcs))}
					j := i
					for ; j < len(frags) && frags[j].agg == co.agg; j++ {
						f := &frags[j]
						if ns := len(h.segs); ns > int(co.seg0) && h.segs[ns-1].off+h.segs[ns-1].len == f.woff {
							h.segs[ns-1].len += f.len // adjacent in the window: merge
						} else {
							h.segs = append(h.segs, seg{f.woff, f.len})
						}
						h.srcs = append(h.srcs, combSrc{member: f.member, moff: f.moff, len: f.len})
						co.total += f.len
					}
					co.nseg = int32(len(h.segs)) - co.seg0
					co.nsrc = int32(len(h.srcs)) - co.src0
					h.combOps = append(h.combOps, co)
					i = j
				}
			}
			h.leadIdx[n*nc+c+1] = int32(len(h.combOps))
		}
	}
	na := len(p.aggRanks)
	h.aggIdx = make([]int32, na*nc+1)
	for i := range h.combOps {
		co := &h.combOps[i]
		h.aggIdx[int(co.agg)*nc+int(co.cycle)+1]++
	}
	for b := 0; b < na*nc; b++ {
		h.aggIdx[b+1] += h.aggIdx[b]
	}
	h.aggList = make([]int32, len(h.combOps))
	cur := make([]int32, na*nc)
	copy(cur, h.aggIdx[:na*nc])
	for i := range h.combOps {
		co := &h.combOps[i]
		b := int(co.agg)*nc + int(co.cycle)
		h.aggList[cur[b]] = int32(i)
		cur[b]++
	}
	return h
}

// twoSidedInitHier is the hierarchical counterpart of twoSidedInit.
// Aggregators pre-post receives for the direct traffic (the flat set
// minus routed ops) and for the combined messages; then each rank runs
// its role: leaders forward their node's pre-combined traffic, members
// ship theirs to the leader. When the hierarchy is empty (one rank per
// node) every branch below degenerates to the flat body in the flat
// order.
func (ex *exec) twoSidedInitHier(sh *shuffle) {
	r := ex.r
	h := ex.p.hier
	tag := ex.opts.TagBase + sh.cycle
	if ex.aggIdx >= 0 {
		recvs := ex.p.recvsAt(ex.aggIdx, sh.cycle)
		for i := range recvs {
			ro := &recvs[i]
			if h.routed(ro.total, int(ro.src)) {
				continue // arrives inside the leader's combined message
			}
			ex.recvInto(sh, int(ro.src), tag, ex.bufs[sh.slot], ex.p.rsegsOf(ro), ro.total)
		}
		ctag := ex.opts.TagBase + tagOffComb + sh.cycle
		for _, ci := range h.combsAtAgg(ex.aggIdx, sh.cycle) {
			co := &h.combOps[ci]
			ex.recvInto(sh, int(co.node)*h.rpn, ctag, ex.bufs[sh.slot], h.segsOf(co), co.total)
		}
	}
	if h.isLeader(r.ID()) {
		ex.leaderInit(sh)
	} else {
		ex.memberInit(sh)
	}
}

// leaderInit runs a node leader's cycle: release the members' credits,
// pre-post their payload receives, send the leader's own contributions
// on the flat direct path, then wait for the member payloads and
// forward the combined messages.
func (ex *exec) leaderInit(sh *shuffle) {
	r := ex.r
	h := ex.p.hier
	c := sh.cycle
	node := r.ID() / h.rpn
	lo, hi := r.ID()+1, r.ID()+h.rpn
	if hi > ex.p.np {
		hi = ex.p.np
	}
	// Credits first: members block on them, so they must be on the wire
	// before this rank can block on the member payloads below.
	ctag := ex.opts.TagBase + tagOffCredit + c
	for m := lo; m < hi; m++ {
		if h.intraBytesOf(m, c) > 0 {
			sh.reqs = append(sh.reqs, r.Isend(m, ctag, mpi.Symbolic(1)))
		}
	}
	itag := ex.opts.TagBase + tagOffIntra + c
	ex.intraReqs = ex.intraReqs[:0]
	if cap(ex.intraBufs) < h.rpn-1 {
		ex.intraBufs = make([][]byte, h.rpn-1)
	}
	bufs := ex.intraBufs[:cap(ex.intraBufs)]
	var intraTotal int64
	for m := lo; m < hi; m++ {
		ib := h.intraBytesOf(m, c)
		bufs[m-lo] = nil
		if ib == 0 {
			continue
		}
		var buf []byte
		if ex.dataMode {
			buf = ex.stageAlloc(sh.slot, ib)
			bufs[m-lo] = buf
		}
		ex.intraReqs = append(ex.intraReqs, r.Irecv(m, itag, ib, buf))
		intraTotal += ib
	}
	// The leader's own contributions always go direct — same path, same
	// order as twoSidedInit (load-bearing for flat equivalence at one
	// rank per node).
	tag := ex.opts.TagBase + c
	sends := ex.p.sendsAt(r.ID(), c)
	for i := range sends {
		so := &sends[i]
		sh.reqs = append(sh.reqs, r.Isend(ex.p.aggRanks[so.agg], tag, ex.sendPayload(so)))
		ex.res.BytesSent += so.total
	}
	if len(ex.intraReqs) == 0 {
		return
	}
	// Store-and-forward: wait for the member payloads (matching keeps
	// progressing while blocked), merge them at memory bandwidth plus a
	// per-fragment request-walk cost, and ship one combined message per
	// target aggregator. Combined bytes are not re-counted in BytesSent:
	// the members originated them (intra leg, counted in memberInit).
	tPre := r.Now()
	r.Wait(ex.intraReqs...)
	combs := h.combsAtNode(node, c)
	var nfrag int64
	for i := range combs {
		nfrag += int64(combs[i].nsrc)
	}
	ex.chargeCopy(intraTotal)
	r.Compute(sim.Time(nfrag) * r.World().Config().CombinePerOp)
	ktag := ex.opts.TagBase + tagOffComb + c
	for i := range combs {
		co := &combs[i]
		var pl mpi.Payload
		if ex.dataMode {
			pl = mpi.Bytes(ex.assembleComb(co, bufs, lo))
		} else {
			pl = mpi.Symbolic(co.total)
		}
		sh.reqs = append(sh.reqs, r.Isend(ex.p.aggRanks[co.agg], ktag, pl))
	}
	ex.obs.Phase(probe.CausePreCombine, r.ID(), c, tPre, r.Now(), 0)
}

// assembleComb packs one combined message from the members' received
// payloads, in window order (the order hierPlan.srcs stores). The
// result aliases ex.combBuf, which the next combined message reuses as
// soon as this one's Isend returns: mpi.Isend copies data payloads at
// post, unlike MPI_Isend.
func (ex *exec) assembleComb(co *combOp, bufs [][]byte, lo int) []byte {
	h := ex.p.hier
	out := ex.combBuf[:0]
	for _, s := range h.srcsOf(co) {
		b := bufs[int(s.member)-lo]
		out = append(out, b[s.moff:s.moff+s.len]...)
	}
	ex.combBuf = out
	return out
}

// memberInit runs a member's cycle: wait for the leader's credit, send
// the at-or-above-threshold requests on the flat direct path, and ship
// the routed requests to the leader as one intra-node message.
func (ex *exec) memberInit(sh *shuffle) {
	r := ex.r
	h := ex.p.hier
	c := sh.cycle
	leader := h.leaderOf(r.ID())
	ib := h.intraBytesOf(r.ID(), c)
	if ib > 0 {
		// Per-cycle flow-control credit: blocks until the leader has
		// entered this cycle and pre-posted the payload receive. This
		// replaces, for members, the throttling the flat family gets
		// from its world-wide per-cycle size exchange.
		t0 := r.Now()
		r.Recv(leader, ex.opts.TagBase+tagOffCredit+c, 1, nil)
		ex.obs.Phase(probe.CauseSync, r.ID(), c, t0, r.Now(), 0)
	}
	tag := ex.opts.TagBase + c
	sends := ex.p.sendsAt(r.ID(), c)
	for i := range sends {
		so := &sends[i]
		if so.total < h.thr {
			continue // routed through the node leader below
		}
		sh.reqs = append(sh.reqs, r.Isend(ex.p.aggRanks[so.agg], tag, ex.sendPayload(so)))
		ex.res.BytesSent += so.total
	}
	if ib == 0 {
		return
	}
	itag := ex.opts.TagBase + tagOffIntra + c
	nrouted, firstRouted := 0, -1
	for i := range sends {
		if sends[i].total < h.thr {
			if firstRouted < 0 {
				firstRouted = i
			}
			nrouted++
		}
	}
	var pl mpi.Payload
	if nrouted == 1 {
		// Single routed request: its packed payload IS the intra-node
		// message (zero-copy when contiguous, as on the flat path).
		pl = ex.sendPayload(&sends[firstRouted])
	} else {
		// Gather all routed requests into one message, in plan order —
		// the layout the leader's combSrc offsets assume.
		if ex.dataMode {
			data := ex.jv.Ranks[r.ID()].Data
			out := ex.packBuf[:0]
			for i := range sends {
				so := &sends[i]
				if so.total >= h.thr {
					continue
				}
				for _, s := range ex.p.segsOf(so) {
					out = append(out, data[s.off:s.off+s.len]...)
				}
			}
			ex.packBuf = out
			pl = mpi.Bytes(out)
		} else {
			pl = mpi.Symbolic(ib)
		}
		ex.chargeCopy(ib)
	}
	sh.reqs = append(sh.reqs, r.Isend(leader, itag, pl))
	ex.res.BytesSent += ib
}
