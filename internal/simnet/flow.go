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
	from, to  int
	intra     bool // same-node transfer: rides the ipc link class
	size      float64
	served    float64 // bytes transmitted as of fluidNet.lastAt
	rate      float64 // current max-min allocation, bytes/second
	injected  *sim.Future
	delivered *sim.Future
	marks     []flowMark // ascending byte offsets
	nextMark  int
}

// fluidNet is the max-min fair fluid solver attached to a Network under
// ModelFlow. Links come in two classes: every inter-node flow consumes
// one tx link (its source NIC) and one rx link (its destination NIC) at
// InterBandwidth; every intra-node flow consumes its node's single ipc
// link at IntraBandwidth — the distinct intra-node link class, so
// same-node bulk transfers contend with each other but never with the
// NIC. Rates are recomputed by progressive filling whenever a flow
// arrives or departs, and the next departure/milestone crossing is
// scheduled as a single kernel event (invalidated by a generation
// counter when an earlier arrival forces an earlier recompute).
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

	flows   []*fluidFlow // active, in submission order
	lastAt  sim.Time
	gen     uint64
	pending bool

	// Solver scratch, reused across recomputes.
	txCount, rxCount, ipcCount []int32
	txCap, rxCap, ipcCap       []float64
	txNodes, rxNodes, ipcNodes []int32
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
		txCount:  make([]int32, cfg.Nodes),
		rxCount:  make([]int32, cfg.Nodes),
		ipcCount: make([]int32, cfg.Nodes),
		txCap:    make([]float64, cfg.Nodes),
		rxCap:    make([]float64, cfg.Nodes),
		ipcCap:   make([]float64, cfg.Nodes),
	}
}

// submit adds one flow. injected completes when the last byte has been
// transmitted; delivered one wire latency later (one ipc latency for
// intra-node flows); each mark's future one latency after its byte
// offset is crossed. marks must ascend.
func (fl *fluidNet) submit(from, to int, size int64, injected, delivered *sim.Future, marks []flowMark) {
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
		fl.k.CompleteAfter(0, injected)
		fl.k.CompleteAfter(lat, delivered)
		return
	}
	fl.flows = append(fl.flows, &fluidFlow{
		from: from, to: to, intra: intra, size: float64(size),
		injected: injected, delivered: delivered, marks: marks,
	})
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
			f.injected.Complete()
			fl.k.CompleteAfter(lat, f.delivered)
			continue
		}
		live = append(live, f)
	}
	fl.flows = live
}

// recompute assigns every active flow its max-min fair rate by
// progressive filling: repeatedly find the most-contended link, freeze
// its flows at the bottleneck share, subtract their demand from the
// other link each uses, and continue with the rest. Scan order (tx
// links in node order, then rx links, then ipc links; flows in
// submission order) is fixed, so the allocation is deterministic.
// Inter-node flows use their source tx and destination rx link;
// intra-node flows use only their node's ipc link.
func (fl *fluidNet) recompute() {
	tx, rx, ipc := fl.txNodes[:0], fl.rxNodes[:0], fl.ipcNodes[:0]
	for _, f := range fl.flows {
		if f.intra {
			if fl.ipcCount[f.from] == 0 {
				ipc = append(ipc, int32(f.from))
			}
			fl.ipcCount[f.from]++
			f.rate = -1 // unfrozen
			continue
		}
		if fl.txCount[f.from] == 0 {
			tx = append(tx, int32(f.from))
		}
		fl.txCount[f.from]++
		if fl.rxCount[f.to] == 0 {
			rx = append(rx, int32(f.to))
		}
		fl.rxCount[f.to]++
		f.rate = -1 // unfrozen
	}
	fl.txNodes, fl.rxNodes, fl.ipcNodes = tx, rx, ipc
	for _, n := range tx {
		fl.txCap[n] = fl.bw
	}
	for _, n := range rx {
		fl.rxCap[n] = fl.bw
	}
	for _, n := range ipc {
		fl.ipcCap[n] = fl.ibw
	}
	share := func(cap float64, cnt int32) float64 {
		if cap < 0 {
			cap = 0
		}
		return cap / float64(cnt)
	}
	remaining := len(fl.flows)
	for remaining > 0 {
		best := math.MaxFloat64
		for _, n := range tx {
			if c := fl.txCount[n]; c > 0 {
				if s := share(fl.txCap[n], c); s < best {
					best = s
				}
			}
		}
		for _, n := range rx {
			if c := fl.rxCount[n]; c > 0 {
				if s := share(fl.rxCap[n], c); s < best {
					best = s
				}
			}
		}
		for _, n := range ipc {
			if c := fl.ipcCount[n]; c > 0 {
				if s := share(fl.ipcCap[n], c); s < best {
					best = s
				}
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
			sat := false
			if f.intra {
				if c := fl.ipcCount[f.from]; c > 0 && share(fl.ipcCap[f.from], c) <= lim {
					sat = true
				}
				if !sat {
					continue
				}
				f.rate = best
				fl.ipcCount[f.from]--
				fl.ipcCap[f.from] -= best
				remaining--
				continue
			}
			if c := fl.txCount[f.from]; c > 0 && share(fl.txCap[f.from], c) <= lim {
				sat = true
			}
			if c := fl.rxCount[f.to]; c > 0 && share(fl.rxCap[f.to], c) <= lim {
				sat = true
			}
			if !sat {
				continue
			}
			f.rate = best
			fl.txCount[f.from]--
			fl.txCap[f.from] -= best
			fl.rxCount[f.to]--
			fl.rxCap[f.to] -= best
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
