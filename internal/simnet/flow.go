package simnet

import (
	"math"

	"collio/internal/sim"
)

// NetModel selects how bulk inter-node transfers are simulated.
type NetModel int

const (
	// ModelChunked is the exact reference model: every transfer rides
	// the per-node tx/rx servers as a discrete request, so queueing,
	// cut-through pipelining and per-chunk event ladders are simulated
	// faithfully. The default.
	ModelChunked NetModel = iota
	// ModelFlow approximates bulk transfers with a fluid model:
	// concurrent flows share the per-node link capacities under max-min
	// fairness, and completion times come from an event-driven rate
	// recomputation at every flow arrival and departure instead of a
	// per-chunk event ladder. Inter-node flows share the per-node
	// tx/rx NIC capacities; intra-node flows share a distinct per-node
	// ipc capacity (IntraBandwidth/IntraLatency), so shared-memory
	// contention inside a node — the resource the hierarchical
	// pre-combine phase rides — is modeled under fluid semantics too.
	// Transfers below Config.FlowMinBytes keep the exact path, where
	// per-message latency behaviour matters most. Deterministic by
	// construction; incompatible with LinkNoise and with partitioned
	// execution.
	ModelFlow
)

func (m NetModel) String() string {
	switch m {
	case ModelChunked:
		return "chunked"
	case ModelFlow:
		return "flow"
	}
	return "NetModel(?)"
}

// ParseNetModel maps a -netmodel flag value to a NetModel.
func ParseNetModel(s string) (NetModel, bool) {
	switch s {
	case "chunked", "":
		return ModelChunked, true
	case "flow":
		return ModelFlow, true
	}
	return ModelChunked, false
}

// defaultFlowMinBytes is the fluid-model routing threshold when
// Config.FlowMinBytes is zero: 64 KiB keeps protocol control traffic
// and small eager messages on the exact path.
const defaultFlowMinBytes = 64 << 10

// flowEps absorbs float drift in the fluid integrator: the next-event
// delay is rounded up to whole nanoseconds, so a byte target is always
// reached within well under a thousandth of a byte.
const flowEps = 1e-3

// flowMark is a progress milestone inside one fluid flow: fut completes
// one wire latency after the flow's cumulative transmitted bytes cross
// `bytes`. Used to replay per-member completions out of a bundled
// cohort transfer.
type flowMark struct {
	bytes float64
	fut   *sim.Future
}

// fluidFlow is one bulk transfer progressing through the fluid model.
type fluidFlow struct {
	intra    bool     // same-node transfer: rides the ipc link class
	links    [2]int32 // fluidNet link ids it consumes; links[:nlinks]
	nlinks   int
	size     float64
	served   float64 // bytes transmitted as of fluidNet.lastAt
	rate     float64 // current max-min allocation, bytes/second
	tr       *Transfer
	marks    []flowMark // ascending byte offsets
	nextMark int
}

// fluidNet is the max-min fair fluid solver attached to a Network under
// ModelFlow. Links come in two classes: every inter-node flow consumes
// one tx link (its source NIC) and one rx link (its destination NIC) at
// InterBandwidth; every intra-node flow consumes its node's single ipc
// link at IntraBandwidth — the distinct intra-node link class, so
// same-node bulk transfers contend with each other but never with the
// NIC. All links live in one table: node n's tx link is n, its rx link
// nodes+n and its ipc link 2·nodes+n. Rates are recomputed by
// progressive filling whenever a flow arrives or departs, and the next
// departure/milestone crossing is scheduled as a single kernel event
// (invalidated by a generation counter when an earlier arrival forces
// an earlier recompute).
//
// All state is plain slices iterated in deterministic order, so flow
// mode is exactly reproducible for a given seed and submission order.
type fluidNet struct {
	k        *sim.Kernel
	bw       float64 // per-NIC capacity, bytes per second
	lat      sim.Time
	ibw      float64 // per-node ipc capacity, bytes per second
	ilat     sim.Time
	minBytes int64
	nodes    int

	flows   []*fluidFlow // active, in submission order
	lastAt  sim.Time
	gen     uint64
	pending bool

	// Solver scratch, reused across recomputes: per-link unfrozen flow
	// count and remaining capacity, and the links in use.
	count  []int32
	cap    []float64
	active []int32
}

func newFluidNet(k *sim.Kernel, cfg Config) *fluidNet {
	min := cfg.FlowMinBytes
	if min <= 0 {
		min = defaultFlowMinBytes
	}
	return &fluidNet{
		k:        k,
		bw:       cfg.InterBandwidth,
		lat:      cfg.InterLatency,
		ibw:      cfg.IntraBandwidth,
		ilat:     cfg.IntraLatency,
		minBytes: min,
		nodes:    cfg.Nodes,
		count:    make([]int32, 3*cfg.Nodes),
		cap:      make([]float64, 3*cfg.Nodes),
	}
}

// submit adds tr as one flow. Its Injected completes when the last byte
// has been transmitted; it is delivered one wire latency later (one ipc
// latency for intra-node flows); each mark's future completes one
// latency after its byte offset is crossed. marks must ascend.
func (fl *fluidNet) submit(tr *Transfer, marks []flowMark) {
	from, to, size := tr.From, tr.To, tr.Size
	intra := from == to
	bw, lat := fl.bw, fl.lat
	if intra {
		bw, lat = fl.ibw, fl.ilat
	}
	if bw <= 0 {
		// Infinite bandwidth, the sim.Server convention: transmission
		// is instantaneous, only latency remains.
		for _, m := range marks {
			fl.k.CompleteAfter(lat, m.fut)
		}
		fl.k.CompleteAfter(0, tr.Injected)
		fl.k.AfterAction(lat, &tr.deliver)
		return
	}
	f := &fluidFlow{intra: intra, size: float64(size), tr: tr, marks: marks}
	if intra {
		f.links[0], f.nlinks = int32(2*fl.nodes+from), 1
	} else {
		f.links, f.nlinks = [2]int32{int32(from), int32(fl.nodes + to)}, 2
	}
	fl.flows = append(fl.flows, f)
	fl.poke()
}

// poke schedules one solver step at the current instant, coalescing
// multiple same-instant arrivals into a single recompute.
func (fl *fluidNet) poke() {
	if fl.pending {
		return
	}
	fl.pending = true
	fl.k.After(0, fl.step)
}

// step is the solver tick: integrate progress to now, retire finished
// flows and crossed milestones, recompute the max-min rates, and
// schedule the next tick at the earliest predicted event.
func (fl *fluidNet) step() {
	fl.pending = false
	fl.gen++
	now := fl.k.Now()
	fl.advance(now)
	fl.recompute()
	fl.scheduleNext(now)
}

// advance progresses every flow at its last-computed rate up to now.
func (fl *fluidNet) advance(now sim.Time) {
	dt := float64(now-fl.lastAt) / float64(sim.Second)
	fl.lastAt = now
	live := fl.flows[:0]
	for _, f := range fl.flows {
		lat := fl.lat
		if f.intra {
			lat = fl.ilat
		}
		if dt > 0 && f.rate > 0 {
			f.served += f.rate * dt
		}
		if f.served > f.size {
			f.served = f.size
		}
		for f.nextMark < len(f.marks) && f.served >= f.marks[f.nextMark].bytes-flowEps {
			fl.k.CompleteAfter(lat, f.marks[f.nextMark].fut)
			f.nextMark++
		}
		if f.served >= f.size-flowEps {
			for f.nextMark < len(f.marks) { // trailing marks at == size
				fl.k.CompleteAfter(lat, f.marks[f.nextMark].fut)
				f.nextMark++
			}
			f.tr.Injected.Complete()
			fl.k.AfterAction(lat, &f.tr.deliver)
			continue
		}
		live = append(live, f)
	}
	fl.flows = live
}

// recompute assigns every active flow its max-min fair rate by
// progressive filling: repeatedly find the most-contended link, freeze
// its flows at the bottleneck share, subtract their demand from every
// link they use, and continue with the rest. Flows are scanned in
// submission order, so the allocation is deterministic. Inter-node
// flows use their source tx and destination rx link; intra-node flows
// use only their node's ipc link.
func (fl *fluidNet) recompute() {
	ipcBase := int32(2 * fl.nodes)
	active := fl.active[:0]
	for _, f := range fl.flows {
		for _, l := range f.links[:f.nlinks] {
			if fl.count[l] == 0 {
				active = append(active, l)
				fl.cap[l] = fl.bw
				if l >= ipcBase {
					fl.cap[l] = fl.ibw
				}
			}
			fl.count[l]++
		}
		f.rate = -1 // unfrozen
	}
	fl.active = active
	share := func(l int32) float64 {
		return max(fl.cap[l], 0) / float64(fl.count[l])
	}
	remaining := len(fl.flows)
	for remaining > 0 {
		best := math.MaxFloat64
		for _, l := range active {
			if fl.count[l] > 0 {
				best = min(best, share(l))
			}
		}
		// Freeze every unfrozen flow that touches a link saturating at
		// the bottleneck share (relative epsilon: equal-share links
		// saturate together).
		lim := best * (1 + 1e-9)
		for _, f := range fl.flows {
			if f.rate >= 0 {
				continue
			}
			links := f.links[:f.nlinks]
			sat := false
			for _, l := range links {
				if fl.count[l] > 0 && share(l) <= lim {
					sat = true
				}
			}
			if !sat {
				continue
			}
			f.rate = best
			for _, l := range links {
				fl.count[l]--
				fl.cap[l] -= best
			}
			remaining--
		}
	}
}

// scheduleNext arms one kernel event at the earliest flow completion or
// milestone crossing under the current rates. The delay rounds up to a
// whole nanosecond so the event lands at-or-after the crossing; a
// recompute before then bumps gen and orphans the tick.
func (fl *fluidNet) scheduleNext(now sim.Time) {
	if len(fl.flows) == 0 {
		return
	}
	next := math.MaxFloat64
	for _, f := range fl.flows {
		if f.rate <= 0 {
			continue
		}
		target := f.size
		if f.nextMark < len(f.marks) && f.marks[f.nextMark].bytes < target {
			target = f.marks[f.nextMark].bytes
		}
		if dt := (target - f.served) / f.rate; dt < next {
			next = dt
		}
	}
	if next == math.MaxFloat64 {
		return
	}
	d := sim.Time(math.Ceil(next * float64(sim.Second)))
	if d < 1 {
		d = 1
	}
	gen := fl.gen
	fl.k.After(d, func() {
		if gen == fl.gen {
			fl.step()
		}
	})
}
