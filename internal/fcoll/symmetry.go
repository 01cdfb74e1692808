package fcoll

import (
	"fmt"

	"collio/internal/datatype"
)

// This file is the public face of the collective plan for the bundled
// cohort executor (exp.runBundled): a read-only Schedule over the
// CSR plan arenas, plus rank-symmetry detection. Non-aggregator ranks
// in regular workloads (IOR, Tile I/O, Flash I/O) are behaviourally
// identical up to a node offset — the same per-cycle traffic shape to
// the "same" aggregator relative to their own node. Grouping them into
// cohorts lets a bundled executor run each cohort's plan once and
// replay per-member completions by offset instead of simulating every
// rank as a live coroutine.

// Schedule is a read-only view of one collective's resolved plan,
// decoupled from the per-rank execution machinery. It is buildable
// without an mpi.World, which is what lets the bundled executor plan
// million-rank collectives with no per-rank simulation state.
type Schedule struct {
	p       *plan
	np, rpn int
}

// BuildSchedule resolves the collective plan for opts exactly as a
// per-rank execution would (same window derivation, same plan cache on
// jv), without needing a live World.
func BuildSchedule(jv *JobView, np, rpn int, opts Options) (*Schedule, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Hierarchical {
		// The bundled executor replays flat per-rank symmetry; the
		// hierarchical family's leader/member roles break it, so
		// hierarchical specs always take the exact per-rank path
		// (exp.routeFor filters them before reaching here).
		return nil, fmt.Errorf("fcoll: bundled scheduling does not support the hierarchical family")
	}
	if len(jv.Ranks) != np {
		return nil, fmt.Errorf("fcoll: JobView has %d ranks, world has %d", len(jv.Ranks), np)
	}
	window, _ := opts.subBuffers()
	p := buildPlan(jv, np, rpn, window, opts.Aggregators, opts.Layout, 0)
	return &Schedule{p: p, np: np, rpn: rpn}, nil
}

// NCycles returns the global cycle count.
func (s *Schedule) NCycles() int { return s.p.ncycles }

// AggRanks returns the world ranks acting as aggregators. Callers must
// not mutate the returned slice.
func (s *Schedule) AggRanks() []int { return s.p.aggRanks }

// CycleExtent returns the file extent aggregator a flushes in cycle c.
func (s *Schedule) CycleExtent(a, c int) datatype.Extent { return s.p.cycleExtent(a, c) }

// EachSend calls f for every outbound op of rank r in cycle c, in plan
// order: the target aggregator index, the op's total bytes, and its
// segment count (multi-segment ops pay a pack copy before sending).
func (s *Schedule) EachSend(r, c int, f func(agg int, total int64, nseg int)) {
	ops := s.p.sendsAt(r, c)
	for i := range ops {
		f(int(ops[i].agg), ops[i].total, int(ops[i].nseg))
	}
}

// EachRecv calls f for every inbound op of aggregator a in cycle c, in
// plan order: the source rank, the op's total bytes, and its segment
// count (multi-segment ops pay an unpack copy at the aggregator).
func (s *Schedule) EachRecv(a, c int, f func(src int, total int64, nseg int)) {
	ops := s.p.recvsAt(a, c)
	for i := range ops {
		f(int(ops[i].src), ops[i].total, int(ops[i].nseg))
	}
}

// Cohorts groups the non-aggregator ranks of a schedule into classes of
// node-relative behavioural symmetry.
type Cohorts struct {
	// Of maps each world rank to its cohort id, or -1 for aggregators.
	Of []int32
	// Size and Leader are indexed by cohort id: the member count and
	// the lowest member rank (cohort ids are assigned in first-seen
	// rank order, so Leader ascends).
	Size   []int32
	Leader []int32
	nonAgg int
}

// Count returns the number of distinct cohorts.
func (ch *Cohorts) Count() int { return len(ch.Size) }

// Collapses reports whether bundling pays: the cohort count is at most
// half the non-aggregator rank count, i.e. the symmetric fast path
// would at least halve the per-rank state. Fully asymmetric workloads
// (every rank its own cohort) report false and take the exact path.
func (ch *Cohorts) Collapses() bool {
	return ch.nonAgg > 0 && ch.Count()*2 <= ch.nonAgg
}

// fnv1a64 mixes one value into an FNV-1a accumulator.
func fnv1a64(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// DetectCohorts fingerprints every non-aggregator rank's complete
// schedule — per cycle, the op sequence with byte totals, segment
// shapes (lengths, not offsets), and the target aggregator's node
// expressed RELATIVE to the sender's node — and groups equal
// fingerprints into cohorts. The fingerprint covers exactly the
// schedule features that determine simulated COST: how many ops, how
// many bytes, how fragmented (fragment counts and sizes set the
// pack/unpack copy charges), and whether the wire is node-local.
// Absolute offsets — where in its own buffer a rank reads, where in the
// aggregator's window its bytes land — are deliberately excluded: they
// decide byte placement, which the bundled executor does not replay
// (it is validated by makespan tolerance, not digest equality), and
// including them would shatter cohorts whenever aggregator domains lose
// node alignment (e.g. a partially-filled last node shifts every
// domain boundary). Two ranks land in the same cohort only if their
// shuffle behaviour is cost-identical up to a node translation, which
// is exactly the symmetry the bundled executor exploits (it batches
// cohort traffic per node and replays member completions by offset).
// The fingerprint is a 64-bit FNV-1a hash: a collision would silently
// merge two distinct behaviours, but with at most a few thousand
// distinct classes in practice the collision probability is ~1e-12 and
// the downstream tolerance tests would catch a merge that mattered.
func DetectCohorts(s *Schedule) *Cohorts {
	nodes := (s.np + s.rpn - 1) / s.rpn
	ch := &Cohorts{Of: make([]int32, s.np)}
	isAgg := make([]bool, s.np)
	for _, a := range s.p.aggRanks {
		isAgg[a] = true
	}
	byFP := make(map[uint64]int32)
	for r := 0; r < s.np; r++ {
		if isAgg[r] {
			ch.Of[r] = -1
			continue
		}
		ch.nonAgg++
		srcNode := r / s.rpn
		h := uint64(14695981039346656037)
		h = fnv1a64(h, uint64(r%s.rpn)) // slot within the node
		// Intra-node role, hashed explicitly: slot 0 is the rank the
		// hierarchical family promotes to node aggregation leader, so a
		// leaf and a node-aggregator must never share a cohort even if a
		// future fingerprint revision stops hashing the raw slot.
		var role uint64
		if r%s.rpn == 0 {
			role = 1
		}
		h = fnv1a64(h, role)
		for c := 0; c < s.p.ncycles; c++ {
			ops := s.p.sendsAt(r, c)
			h = fnv1a64(h, uint64(c))
			h = fnv1a64(h, uint64(len(ops)))
			for i := range ops {
				so := &ops[i]
				aggNode := s.p.aggRanks[so.agg] / s.rpn
				delta := (aggNode - srcNode + nodes) % nodes
				h = fnv1a64(h, uint64(delta))
				h = fnv1a64(h, uint64(so.total))
				h = fnv1a64(h, uint64(so.nseg))
				for _, sg := range s.p.segsOf(so) {
					h = fnv1a64(h, uint64(sg.len))
				}
				for _, sg := range s.p.wsegsOf(so) {
					h = fnv1a64(h, uint64(sg.len))
				}
			}
		}
		id, ok := byFP[h]
		if !ok {
			id = int32(len(ch.Size))
			byFP[h] = id
			ch.Size = append(ch.Size, 0)
			ch.Leader = append(ch.Leader, int32(r))
		}
		ch.Of[r] = id
		ch.Size[id]++
	}
	return ch
}
