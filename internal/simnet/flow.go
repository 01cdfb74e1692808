package simnet

import (
	"cmp"
	"container/heap"
	"math"
	"slices"

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
	// recomputation instead of a per-chunk event ladder. A flow arrival
	// or departure re-rates only the flows connected to it through
	// shared links; every other flow keeps its rate. Inter-node flows
	// share the per-node tx/rx NIC capacities; intra-node flows share a
	// distinct per-node ipc capacity (IntraBandwidth/IntraLatency), so
	// shared-memory contention inside a node — the resource the
	// hierarchical pre-combine phase rides — is modeled under fluid
	// semantics too. Transfers below Config.FlowMinBytes keep the exact
	// path, where per-message latency behaviour matters most.
	// Deterministic by construction; incompatible with LinkNoise and
	// with partitioned execution.
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

// flowEps absorbs float drift in the fluid integrator: a flow crosses a
// byte target at the first whole nanosecond at which its transmitted
// bytes come within flowEps of it.
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
// Its progress is integrated lazily: served holds the bytes transmitted
// as of instant at, and between integrations the flow moves at rate, so
// only a rate change or a crossing touches it. Retired flows wait in
// their net's pool, linked through next[0].
type fluidFlow struct {
	tr     *Transfer
	marks  []flowMark // milestones not yet crossed, ascending byte offsets
	size   float64
	served float64  // bytes transmitted as of at
	rate   float64  // current max-min allocation, bytes/second
	at     sim.Time // instant served was last integrated
	seq    uint64   // submission order
	// crossAt is the flow's next crossing (its next milestone or its
	// end) while it sits in the crossing heap at index hi; hi is -1
	// when the flow has no crossing scheduled (not yet rated, or rate
	// 0).
	crossAt sim.Time
	hi      int32
	// next[i] is the flow after this one on the flow list of link
	// links[i].
	next   [2]*fluidFlow
	links  [2]int32 // fluidNet link ids it consumes; links[:nlinks]
	nlinks uint8
	intra  bool // same-node transfer: rides the ipc link class
}

// servedAt returns the bytes f has transmitted by instant t at its
// current rate.
func (f *fluidFlow) servedAt(t sim.Time) float64 {
	return f.served + f.rate*(float64(t-f.at)/float64(sim.Second))
}

// integrate moves f's progress to now at its current rate.
func (f *fluidFlow) integrate(now sim.Time) {
	f.served = min(f.servedAt(now), f.size)
	f.at = now
}

// crossing returns the first whole nanosecond after f.at at which f's
// transmitted bytes reach its next target (next milestone or end) less
// flowEps, or false when its rate never gets it there.
func (f *fluidFlow) crossing() (sim.Time, bool) {
	if f.rate <= 0 {
		return 0, false
	}
	target := f.size
	if len(f.marks) > 0 && f.marks[0].bytes < target {
		target = f.marks[0].bytes
	}
	goal := target - flowEps
	est := math.Ceil((goal - f.served) / f.rate * float64(sim.Second))
	if !(est < 1<<62) {
		return 0, false
	}
	// The estimate divides where servedAt multiplies; step it to the
	// exact first instant servedAt reports as crossed.
	d := max(sim.Time(est), 1)
	for f.servedAt(f.at+d) < goal {
		d++
	}
	for d > 1 && f.servedAt(f.at+d-1) >= goal {
		d--
	}
	return f.at + d, true
}

// slot returns the index of link l in f.links.
func (f *fluidFlow) slot(l int32) int {
	if f.links[0] == l {
		return 0
	}
	return 1
}

// fluidLink is one capacity of the fluid model: the flows on it as an
// intrusive list, and the component walk's bookkeeping.
type fluidLink struct {
	head  *fluidFlow
	visit uint32 // walk stamp: the link belongs to the current component
	pos   int32  // its index in the current component's links
	dirty bool   // its flow set changed since the last step
}

// linkFill is one component link's progressive-filling state.
type linkFill struct {
	cap      float64 // capacity not yet allocated
	share    float64 // cap split among count, while count > 0
	count    int32   // flows not yet frozen
	n, start int32   // its flows, at fluidNet.members[start:start+n]
}

// reshare recomputes the link's fair share after its count or cap
// changed.
func (lf *linkFill) reshare() {
	if lf.count > 0 {
		lf.share = max(lf.cap, 0) / float64(lf.count)
	}
}

// crossHeap orders rated flows by (crossAt, seq): the earliest crossing
// first, same-instant crossings in submission order.
type crossHeap []*fluidFlow

func (h crossHeap) Len() int { return len(h) }
func (h crossHeap) Less(i, j int) bool {
	if h[i].crossAt != h[j].crossAt {
		return h[i].crossAt < h[j].crossAt
	}
	return h[i].seq < h[j].seq
}
func (h crossHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hi, h[j].hi = int32(i), int32(j)
}
func (h *crossHeap) Push(x any) {
	f := x.(*fluidFlow)
	f.hi = int32(len(*h))
	*h = append(*h, f)
}
func (h *crossHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	f.hi = -1
	return f
}

// fluidTick is one armed solver tick: it steps the solver if no step
// has run since it was armed (gen unchanged), and returns itself to the
// net's tick pool when it fires.
type fluidTick struct {
	fl   *fluidNet
	gen  uint64
	ev   sim.Event[fluidTick]
	next *fluidTick // pool link
}

func (t *fluidTick) expire() {
	fl := t.fl
	live := t.gen == fl.gen
	fl.ticks.Put(t)
	if live {
		fl.step()
	}
}

// fluidNet is the max-min fair fluid solver attached to a Network under
// ModelFlow. Links come in two classes: every inter-node flow consumes
// one tx link (its source NIC) and one rx link (its destination NIC) at
// InterBandwidth; every intra-node flow consumes its node's single ipc
// link at IntraBandwidth — the distinct intra-node link class, so
// same-node bulk transfers contend with each other but never with the
// NIC. All links live in one table: node n's tx link is n, its rx link
// nodes+n and its ipc link 2·nodes+n.
//
// Max-min fair rates separate by connected component (flows joined
// through shared links), so a solver step re-rates only the components
// whose flow set changed: an arrival or departure marks its links
// dirty, and the step walks link→flow→link from them and runs
// progressive filling on what it reaches. A re-rated flow is integrated
// to the step's instant and its next crossing recomputed from its own
// state; every other flow is untouched. Crossings wait in a min-heap,
// and each step arms one kernel tick at the earliest (invalidated by a
// generation counter when an earlier arrival forces an earlier step).
// A step costs O(flows and links in the changed components + crossings
// handled · log active flows), independent of the untouched flows.
//
// All state is iterated in deterministic order — crossings and
// filling in submission order — so flow mode is exactly reproducible
// for a given seed and submission order.
type fluidNet struct {
	k        *sim.Kernel
	bw       float64 // per-NIC capacity, bytes per second
	lat      sim.Time
	ibw      float64 // per-node ipc capacity, bytes per second
	ilat     sim.Time
	minBytes int64
	nodes    int

	links   []fluidLink
	dirty   []int32   // links marked dirty since the last step
	heap    crossHeap // rated flows by next crossing
	seq     uint64
	stamp   uint32
	gen     uint64
	pending bool
	stepEv  sim.Event[fluidNet]

	flows sim.Pool[fluidFlow]
	ticks sim.Pool[fluidTick]

	// Walk and filling scratch, reused across steps: the component's
	// flows (in submission order) with the walk positions of their
	// links (second -1 for an intra-node flow), their filled rates and
	// the last level that considered them; the component's links by
	// walk position with their filling state and flows; the links not
	// yet exhausted; and one level's candidate flows.
	comp    []*fluidFlow
	cpos    [][2]int32
	fills   []float64
	seen    []int32
	clinks  []int32
	lfill   []linkFill
	members []int32
	open    []int32
	cand    []int32
}

func newFluidNet(k *sim.Kernel, cfg Config) *fluidNet {
	min := cfg.FlowMinBytes
	if min <= 0 {
		min = defaultFlowMinBytes
	}
	fl := &fluidNet{
		k:        k,
		bw:       cfg.InterBandwidth,
		lat:      cfg.InterLatency,
		ibw:      cfg.IntraBandwidth,
		ilat:     cfg.IntraLatency,
		minBytes: min,
		nodes:    cfg.Nodes,
		links:    make([]fluidLink, 3*cfg.Nodes),
	}
	fl.stepEv = sim.NewEvent(fl, (*fluidNet).step)
	fl.flows = sim.NewPool(func(f *fluidFlow) **fluidFlow { return &f.next[0] }, nil)
	fl.ticks = sim.NewPool(func(t *fluidTick) **fluidTick { return &t.next }, func(t *fluidTick) {
		t.fl = fl
		t.ev = sim.NewEvent(t, (*fluidTick).expire)
	})
	return fl
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
		fl.k.CompleteAfter(0, tr.injected)
		fl.k.AfterAction(lat, &tr.deliver)
		return
	}
	f := fl.flows.Get()
	fl.seq++
	*f = fluidFlow{tr: tr, marks: marks, size: float64(size), at: fl.k.Now(), seq: fl.seq, hi: -1, intra: intra}
	if intra {
		f.links[0], f.nlinks = int32(2*fl.nodes+from), 1
	} else {
		f.links, f.nlinks = [2]int32{int32(from), int32(fl.nodes + to)}, 2
	}
	for i, l := range f.links[:f.nlinks] {
		lk := &fl.links[l]
		f.next[i], lk.head = lk.head, f
		fl.markDirty(l)
	}
	fl.poke()
}

// retire unlinks a finished flow from its links, marking those still
// carrying flows dirty, and returns it to the pool.
func (fl *fluidNet) retire(f *fluidFlow) {
	for i, l := range f.links[:f.nlinks] {
		lk := &fl.links[l]
		p := &lk.head
		for *p != f {
			g := *p
			p = &g.next[g.slot(l)]
		}
		*p = f.next[i]
		if lk.head != nil {
			fl.markDirty(l)
		}
	}
	*f = fluidFlow{}
	fl.flows.Put(f)
}

func (fl *fluidNet) markDirty(l int32) {
	if !fl.links[l].dirty {
		fl.links[l].dirty = true
		fl.dirty = append(fl.dirty, l)
	}
}

// poke schedules one solver step at the current instant, coalescing
// multiple same-instant arrivals into a single step.
func (fl *fluidNet) poke() {
	if fl.pending {
		return
	}
	fl.pending = true
	fl.k.AfterAction(0, &fl.stepEv)
}

// step is the solver tick: retire finished flows and complete crossed
// milestones, re-rate the components whose flow set changed, and arm
// the next tick at the earliest crossing.
func (fl *fluidNet) step() {
	fl.pending = false
	fl.gen++
	now := fl.k.Now()
	fl.cross(now)
	fl.rerate(now)
	if len(fl.heap) == 0 {
		return
	}
	t := fl.ticks.Get()
	t.gen = fl.gen
	fl.k.AfterAction(fl.heap[0].crossAt-now, &t.ev)
}

// cross handles every flow whose crossing is due, in submission order:
// it completes the milestones the flow has crossed, and either retires
// the flow (Injected now, delivery one latency later) or schedules its
// next crossing.
func (fl *fluidNet) cross(now sim.Time) {
	for len(fl.heap) > 0 && fl.heap[0].crossAt <= now {
		f := heap.Pop(&fl.heap).(*fluidFlow)
		f.integrate(now)
		lat := fl.lat
		if f.intra {
			lat = fl.ilat
		}
		for len(f.marks) > 0 && f.served >= f.marks[0].bytes-flowEps {
			fl.k.CompleteAfter(lat, f.marks[0].fut)
			f.marks = f.marks[1:]
		}
		if f.served >= f.size-flowEps {
			for _, m := range f.marks { // trailing marks at == size
				fl.k.CompleteAfter(lat, m.fut)
			}
			f.tr.injected.Complete()
			fl.k.AfterAction(lat, &f.tr.deliver)
			fl.retire(f)
			continue
		}
		fl.reschedule(f)
	}
}

// rerate recomputes the max-min rates of every component holding a
// dirty link. A flow whose rate changes is integrated to now at its old
// rate before taking the new one.
func (fl *fluidNet) rerate(now sim.Time) {
	if fl.stamp++; fl.stamp == 0 { // wrapped: forget every old stamp
		for i := range fl.links {
			fl.links[i].visit = 0
		}
		fl.stamp = 1
	}
	for _, l := range fl.dirty {
		fl.links[l].dirty = false
		if fl.links[l].visit == fl.stamp || fl.links[l].head == nil {
			continue
		}
		fl.walk(l)
		fl.fillRates()
		for i, f := range fl.comp {
			if r := fl.fills[i]; r != f.rate {
				f.integrate(now)
				f.rate = r
				fl.reschedule(f)
			}
		}
	}
	fl.dirty = fl.dirty[:0]
}

// walk collects the connected component holding link l0: its flows
// into comp, in submission order, and its links into clinks, each
// link's pos its index there.
func (fl *fluidNet) walk(l0 int32) {
	comp, clinks := fl.comp[:0], append(fl.clinks[:0], l0)
	fl.links[l0].visit, fl.links[l0].pos = fl.stamp, 0
	for i := 0; i < len(clinks); i++ {
		l := clinks[i]
		for f := fl.links[l].head; f != nil; f = f.next[f.slot(l)] {
			// A flow joins from the first of its links the walk
			// reaches.
			if f.nlinks == 2 {
				m := f.links[1-f.slot(l)]
				if lm := &fl.links[m]; lm.visit != fl.stamp {
					lm.visit, lm.pos = fl.stamp, int32(len(clinks))
					clinks = append(clinks, m)
				} else if lm.pos < int32(i) {
					continue
				}
			}
			comp = append(comp, f)
		}
	}
	slices.SortFunc(comp, func(a, b *fluidFlow) int { return cmp.Compare(a.seq, b.seq) })
	fl.comp, fl.clinks = comp, clinks
}

// fillRates assigns every flow of the walked component its max-min fair
// rate (into fills) by progressive filling: repeatedly find the
// most-contended link, freeze its flows at the bottleneck share,
// subtract their demand from every link they use, and continue with the
// rest. Flows are frozen in submission order, so the allocation is
// deterministic. Inter-node flows use their source tx and destination
// rx link; intra-node flows use only their node's ipc link.
func (fl *fluidNet) fillRates() {
	ipcBase := int32(2 * fl.nodes)
	if len(fl.comp) == 1 {
		// A lone flow gets its tightest link's capacity: one level
		// whose share is the capacity divided by one.
		f := fl.comp[0]
		r := fl.bw
		if f.intra {
			r = fl.ibw
		}
		fl.fills = append(fl.fills[:0], r)
		return
	}
	lfill, open := fl.lfill[:0], fl.open[:0]
	for i, l := range fl.clinks {
		c := fl.bw
		if l >= ipcBase {
			c = fl.ibw
		}
		lfill = append(lfill, linkFill{cap: c})
		open = append(open, int32(i))
	}
	// Each link's flows, ascending, at members[start:start+n].
	cpos := fl.cpos[:0]
	for _, f := range fl.comp {
		p := [2]int32{fl.links[f.links[0]].pos, -1}
		lfill[p[0]].n++
		if f.nlinks == 2 {
			p[1] = fl.links[f.links[1]].pos
			lfill[p[1]].n++
		}
		cpos = append(cpos, p)
	}
	start := int32(0)
	for i := range lfill {
		lfill[i].start = start
		start += lfill[i].n
	}
	members := slices.Grow(fl.members[:0], int(start))[:start]
	for i, p := range cpos {
		for _, q := range p {
			if q >= 0 {
				lf := &lfill[q]
				members[lf.start+lf.count] = int32(i)
				lf.count++
			}
		}
	}
	for i := range lfill {
		lfill[i].reshare()
	}
	fills := slices.Grow(fl.fills[:0], len(cpos))[:len(cpos)]
	seen := slices.Grow(fl.seen[:0], len(cpos))[:len(cpos)]
	for i := range fills {
		fills[i], seen[i] = -1, -1 // unfrozen
	}
	best := math.MaxFloat64
	for _, p := range open {
		best = min(best, lfill[p].share)
	}
	cand := fl.cand[:0]
	for level := int32(0); len(open) > 0; level++ {
		// Freeze every unfrozen flow that touches a link saturating at
		// the bottleneck share (relative epsilon: equal-share links
		// saturate together). Freezing a flow only raises the share
		// of a link that was not saturating, give or take a rounding,
		// so only flows on links within a wide margin of the bottleneck
		// can freeze in this level; they are checked in submission
		// order.
		lim := best * (1 + 1e-9)
		cut := lim * (1 + 1e-6)
		cand = cand[:0]
		for _, p := range open {
			if lf := &lfill[p]; lf.share <= cut {
				for _, i := range members[lf.start : lf.start+lf.n] {
					if fills[i] < 0 && seen[i] != level {
						seen[i] = level
						cand = append(cand, i)
					}
				}
			}
		}
		slices.Sort(cand)
		for _, i := range cand {
			sat := false
			for _, p := range cpos[i] {
				if p >= 0 && lfill[p].count > 0 && lfill[p].share <= lim {
					sat = true
				}
			}
			if !sat {
				continue
			}
			fills[i] = best
			for _, p := range cpos[i] {
				if p >= 0 {
					lf := &lfill[p]
					lf.count--
					lf.cap -= best
					lf.reshare()
				}
			}
		}
		// Drop the exhausted links and find the next bottleneck.
		still := open[:0]
		best = math.MaxFloat64
		for _, p := range open {
			if lf := &lfill[p]; lf.count > 0 {
				still = append(still, p)
				best = min(best, lf.share)
			}
		}
		open = still
	}
	fl.lfill, fl.open, fl.cpos, fl.members, fl.fills, fl.seen, fl.cand = lfill, open, cpos, members, fills, seen, cand
}

// reschedule places f in the crossing heap at its next crossing, or
// takes it out when it has none.
func (fl *fluidNet) reschedule(f *fluidFlow) {
	at, ok := f.crossing()
	switch {
	case !ok:
		if f.hi >= 0 {
			heap.Remove(&fl.heap, int(f.hi))
		}
	case f.hi >= 0:
		f.crossAt = at
		heap.Fix(&fl.heap, int(f.hi))
	default:
		f.crossAt = at
		heap.Push(&fl.heap, f)
	}
}
