package fcoll

import (
	"fmt"
	"math"
	"sort"

	"collio/internal/datatype"
)

// seg is one contiguous piece of shuffle traffic. For send maps, off is
// the offset within the origin rank's local data buffer; for receive
// maps, off is the offset within the aggregator's cycle window.
type seg struct {
	off, len int64
}

// sendOp is one rank's traffic to one aggregator in one cycle. Its
// segments live in the plan's shared arenas at [seg0, seg0+nseg):
// plan.sendSegs holds file-order offsets into the origin's local buffer
// and plan.sendWsegs mirrors them with window-relative offsets so
// one-sided primitives can Put each contiguous target range directly.
// Resolve with plan.segsOf / plan.wsegsOf.
type sendOp struct {
	agg   int32 // aggregator index (into plan.aggRanks)
	seg0  int32
	nseg  int32
	total int64
}

// recvOp is an aggregator's inbound traffic from one source rank in one
// cycle. Its segments (window-relative offsets) live in plan.recvSegs
// at [seg0, seg0+nseg); resolve with plan.rsegsOf.
type recvOp struct {
	src   int32
	seg0  int32
	nseg  int32
	total int64
}

// plan is the fully-resolved two-phase schedule: identical on every
// rank (as in vulcan, where the flattened views are exchanged up
// front).
//
// The schedule is stored CSR-style in flat arenas rather than nested
// [][][]op slices: ops for bucket (rank r, cycle c) are
// sendOps[sendIdx[b]:sendIdx[b+1]] with b = r*ncycles+c (recvs index by
// aggregator instead of rank), and each op's segments are one
// contiguous run of the shared seg arenas. A plan for np ranks and nc
// cycles costs O(1) allocations instead of O(np*nc), and iteration
// walks dense arrays.
type plan struct {
	layout     DomainLayout
	start, end int64
	aggRanks   []int             // world ranks acting as aggregators
	domains    []datatype.Extent // contiguous layout: per-aggregator domains
	aggSpan    int64             // contiguous layout: uniform domain size
	window     int64             // bytes flushed per cycle per aggregator
	ncycles    int               // global cycle count (max over aggregators)
	np         int

	sendOps   []sendOp
	sendIdx   []int32 // len np*ncycles+1
	sendSegs  []seg   // per-segment origin-buffer offsets
	sendWsegs []seg   // parallel to sendSegs: window-relative offsets
	recvOps   []recvOp
	recvIdx   []int32 // len len(aggRanks)*ncycles+1
	recvSegs  []seg

	hier *hierPlan // non-nil for the hierarchical family (see hier.go)
}

// sendsAt returns rank r's outbound ops for cycle c.
func (p *plan) sendsAt(r, c int) []sendOp {
	b := r*p.ncycles + c
	return p.sendOps[p.sendIdx[b]:p.sendIdx[b+1]]
}

// recvsAt returns aggregator a's inbound ops for cycle c.
func (p *plan) recvsAt(a, c int) []recvOp {
	b := a*p.ncycles + c
	return p.recvOps[p.recvIdx[b]:p.recvIdx[b+1]]
}

func (p *plan) segsOf(so *sendOp) []seg  { return p.sendSegs[so.seg0 : so.seg0+int32(so.nseg)] }
func (p *plan) wsegsOf(so *sendOp) []seg { return p.sendWsegs[so.seg0 : so.seg0+int32(so.nseg)] }
func (p *plan) rsegsOf(ro *recvOp) []seg { return p.recvSegs[ro.seg0 : ro.seg0+int32(ro.nseg)] }

// aggregatorRanks selects the aggregator set: count 0 means one per
// occupied compute node (the first rank of each node), mirroring the
// shape of ompio's automatic runtime selection. Pure in (np, rpn) so
// both the per-rank executor and the bundled cohort executor derive
// the identical set.
func aggregatorRanks(np, rpn, count int) []int {
	if count <= 0 {
		var out []int
		for r := 0; r < np; r += rpn {
			out = append(out, r)
		}
		return out
	}
	if count > np {
		count = np
	}
	// Spread evenly over the rank space.
	out := make([]int, count)
	for i := 0; i < count; i++ {
		out[i] = i * np / count
	}
	return out
}

// hierAggregatorRanks is the node-aware aggregator selection of the
// hierarchical family. Aggregators are spread evenly over *nodes*, not
// over the rank space: up to one aggregator per node the selection
// picks evenly-spaced node leaders, beyond that it fills additional
// slots node by node. With one rank per node it degenerates to exactly
// aggregatorRanks (node index == rank index), which the
// flat-equivalence guarantee of the hierarchical family relies on.
func hierAggregatorRanks(np, rpn, count int) []int {
	if count <= 0 {
		// One aggregator per occupied node: identical to the flat
		// automatic selection, which already lands on node leaders.
		return aggregatorRanks(np, rpn, 0)
	}
	if count > np {
		count = np
	}
	nnodes := (np + rpn - 1) / rpn
	if count <= nnodes {
		out := make([]int, count)
		for i := 0; i < count; i++ {
			out[i] = (i * nnodes / count) * rpn
		}
		return out
	}
	// More aggregators than nodes: every node leader plus intra-node
	// slots filled breadth-first (slot-major) so the extra aggregators
	// stay spread over nodes. Sorted ascending to keep aggregator index
	// aligned with file-domain order, as the flat selection does.
	out := make([]int, 0, count)
	for slot := 0; slot < rpn && len(out) < count; slot++ {
		for n := 0; n < nnodes && len(out) < count; n++ {
			if r := n*rpn + slot; r < np {
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}

// buildPlan computes the full shuffle/write schedule for a window size
// and layout. It runs host-side once per cache key and is shared by all
// ranks; the metadata-exchange cost is charged separately in setup (see
// exec.setup). hierThr > 0 selects the hierarchical family: aggregators
// are chosen node-aware and a hierPlan routing sub-threshold member
// traffic through node leaders is attached (hier.go); 0 is the flat
// family.
func buildPlan(jv *JobView, np, rpn int, window int64, aggregators int, layout DomainLayout, hierThr int64) *plan {
	if jv.planCache == nil {
		jv.planCache = make(map[planKey]*plan)
	}
	key := planKey{window, aggregators, layout, rpn, hierThr}
	if p, ok := jv.planCache[key]; ok {
		return p
	}

	start, end := jv.Bounds()
	total := end - start
	var aggRanks []int
	if hierThr > 0 {
		aggRanks = hierAggregatorRanks(np, rpn, aggregators)
	} else {
		aggRanks = aggregatorRanks(np, rpn, aggregators)
	}
	na := len(aggRanks)
	p := &plan{
		layout:   layout,
		start:    start,
		end:      end,
		aggRanks: aggRanks,
		window:   window,
		np:       np,
	}
	switch layout {
	case RoundRobinWindows:
		nwin := (total + window - 1) / window
		p.ncycles = int((nwin + int64(na) - 1) / int64(na))
	case ContiguousDomains:
		aggSpan := (total + int64(na) - 1) / int64(na)
		if aggSpan == 0 {
			aggSpan = 1
		}
		p.aggSpan = aggSpan
		for a := 0; a < na; a++ {
			dStart := start + int64(a)*aggSpan
			dEnd := dStart + aggSpan
			if dEnd > end {
				dEnd = end
			}
			if dStart > end {
				dStart, dEnd = end, end
			}
			p.domains = append(p.domains, datatype.Extent{Off: dStart, Len: dEnd - dStart})
			cycles := int((dEnd - dStart + window - 1) / window)
			if cycles > p.ncycles {
				p.ncycles = cycles
			}
		}
	default:
		panic(fmt.Sprintf("fcoll: unknown layout %v", layout))
	}

	// locate maps a file offset to its aggregator, cycle and window
	// bounds.
	locate := func(off int64) (a, c int, winStart, winEnd int64) {
		switch layout {
		case RoundRobinWindows:
			g := (off - start) / window
			a = int(g % int64(na))
			c = int(g / int64(na))
			winStart = start + g*window
			winEnd = winStart + window
			if winEnd > end {
				winEnd = end
			}
			return
		default: // ContiguousDomains
			rel := off - start
			a = int(rel / p.aggSpan)
			if a >= na {
				a = na - 1
			}
			dom := p.domains[a]
			c = int((off - dom.Off) / window)
			winStart = dom.Off + int64(c)*window
			winEnd = winStart + window
			if winEnd > dom.End() {
				winEnd = dom.End()
			}
			return
		}
	}

	nc := p.ncycles

	// walk enumerates every contiguous (source range, window range) chunk
	// of the schedule, in the canonical order: rank-major, then that
	// rank's extents in view order, each split at window boundaries.
	walk := func(visit func(r int, srcOff, n, winOff int64, a, c int)) {
		for r := 0; r < np; r++ {
			var srcOff int64
			for _, e := range jv.Ranks[r].Extents {
				off, remaining := e.Off, e.Len
				for remaining > 0 {
					a, c, winStart, winEnd := locate(off)
					n := winEnd - off
					if n > remaining {
						n = remaining
					}
					if n <= 0 {
						panic(fmt.Sprintf("fcoll: planner stuck at off=%d win=[%d,%d) cycle=%d", off, winStart, winEnd, c))
					}
					visit(r, srcOff, n, off-winStart, a, c)
					srcOff += n
					off += n
					remaining -= n
				}
			}
		}
	}

	// Chunks addressed to one (peer, bucket) pair arrive as one
	// consecutive run of the walk: within a rank's walk, file offsets per
	// extent ascend, so both layouts revisit an (aggregator, cycle)
	// bucket only in consecutive chunks; and a recv bucket sees its
	// source ranks in ascending rank order. Merging a chunk into the
	// *last* op of its bucket therefore reproduces exactly the op set a
	// full scan-and-merge would build, which makes a counting pass
	// possible: pass 1 sizes every bucket and arena, pass 2 fills them.
	nsb := np * nc
	nrb := na * nc
	sendCnt := make([]int32, nsb)
	recvCnt := make([]int32, nrb)
	lastAgg := make([]int32, nsb)
	lastSrc := make([]int32, nrb)
	for i := range lastAgg {
		lastAgg[i] = -1
	}
	for i := range lastSrc {
		lastSrc[i] = -1
	}
	var chunks int64
	walk(func(r int, _, _, _ int64, a, c int) {
		chunks++
		sb := r*nc + c
		if lastAgg[sb] != int32(a) {
			lastAgg[sb] = int32(a)
			sendCnt[sb]++
		}
		rb := a*nc + c
		if lastSrc[rb] != int32(r) {
			lastSrc[rb] = int32(r)
			recvCnt[rb]++
		}
	})
	if chunks > math.MaxInt32 {
		panic(fmt.Sprintf("fcoll: plan has %d chunks, exceeds int32 arena indexing", chunks))
	}

	// Prefix sums over op counts; segment arenas get one entry per chunk,
	// laid out in walk order per bucket (sendSegCur/recvSegCur below).
	p.sendIdx = make([]int32, nsb+1)
	for b := 0; b < nsb; b++ {
		p.sendIdx[b+1] = p.sendIdx[b] + sendCnt[b]
	}
	p.recvIdx = make([]int32, nrb+1)
	for b := 0; b < nrb; b++ {
		p.recvIdx[b+1] = p.recvIdx[b] + recvCnt[b]
	}
	p.sendOps = make([]sendOp, p.sendIdx[nsb])
	p.recvOps = make([]recvOp, p.recvIdx[nrb])
	p.sendSegs = make([]seg, chunks)
	p.sendWsegs = make([]seg, chunks)
	p.recvSegs = make([]seg, chunks)

	// Pass 2: fill. Per-bucket cursors; op cursors restart from the
	// prefix sums, segment cursors carve the arenas in first-touch bucket
	// order (each bucket's segments stay contiguous because its chunks
	// arrive in runs — see above).
	sendOpCur := make([]int32, nsb)
	copy(sendOpCur, p.sendIdx[:nsb])
	recvOpCur := make([]int32, nrb)
	copy(recvOpCur, p.recvIdx[:nrb])
	for i := range lastAgg {
		lastAgg[i] = -1
	}
	for i := range lastSrc {
		lastSrc[i] = -1
	}
	var sendSegNext, recvSegNext int32
	walk(func(r int, srcOff, n, winOff int64, a, c int) {
		sb := r*nc + c
		if lastAgg[sb] != int32(a) {
			lastAgg[sb] = int32(a)
			p.sendOps[sendOpCur[sb]] = sendOp{agg: int32(a), seg0: sendSegNext}
			sendOpCur[sb]++
		}
		so := &p.sendOps[sendOpCur[sb]-1]
		so.total += n
		p.sendSegs[so.seg0+so.nseg] = seg{srcOff, n}
		p.sendWsegs[so.seg0+so.nseg] = seg{winOff, n}
		so.nseg++
		if so.seg0+so.nseg > sendSegNext {
			sendSegNext = so.seg0 + so.nseg
		}

		rb := a*nc + c
		if lastSrc[rb] != int32(r) {
			lastSrc[rb] = int32(r)
			p.recvOps[recvOpCur[rb]] = recvOp{src: int32(r), seg0: recvSegNext}
			recvOpCur[rb]++
		}
		ro := &p.recvOps[recvOpCur[rb]-1]
		ro.total += n
		p.recvSegs[ro.seg0+ro.nseg] = seg{winOff, n}
		ro.nseg++
		if ro.seg0+ro.nseg > recvSegNext {
			recvSegNext = ro.seg0 + ro.nseg
		}
	})
	if hierThr > 0 {
		p.hier = buildHierPlan(p, rpn, hierThr)
	}
	jv.planCache[key] = p
	return p
}

// aggIndexOf returns the aggregator index of a world rank, or -1.
func (p *plan) aggIndexOf(rank int) int {
	for i, a := range p.aggRanks {
		if a == rank {
			return i
		}
	}
	return -1
}

// cycleExtent returns the file extent aggregator a flushes in cycle c
// (zero length if the schedule is exhausted).
func (p *plan) cycleExtent(a, c int) datatype.Extent {
	switch p.layout {
	case RoundRobinWindows:
		g := int64(c)*int64(len(p.aggRanks)) + int64(a)
		off := p.start + g*p.window
		if off >= p.end {
			return datatype.Extent{Off: p.end, Len: 0}
		}
		n := p.window
		if off+n > p.end {
			n = p.end - off
		}
		return datatype.Extent{Off: off, Len: n}
	default: // ContiguousDomains
		dom := p.domains[a]
		off := dom.Off + int64(c)*p.window
		if off >= dom.End() {
			return datatype.Extent{Off: dom.End(), Len: 0}
		}
		n := p.window
		if off+n > dom.End() {
			n = dom.End() - off
		}
		return datatype.Extent{Off: off, Len: n}
	}
}
