package simnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"collio/internal/sim"
)

// flowNet builds a sequential ModelFlow network: bw bytes/s per NIC,
// 1 µs wire latency, fluid threshold 64 KiB (the default).
func flowNet(t *testing.T, nodes int, bw float64) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	n := New(k, Config{
		Nodes:          nodes,
		InterBandwidth: bw,
		InterLatency:   sim.Microsecond,
		IntraBandwidth: 5e9,
		IntraLatency:   100 * sim.Nanosecond,
		MemBandwidth:   10e9,
		NetModel:       ModelFlow,
	})
	return k, n
}

// approx asserts |got-want| <= tol.
func approx(t *testing.T, what string, got, want, tol sim.Time) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestFlowUncontendedCompletion(t *testing.T) {
	// One flow on an idle network: transmission at full NIC bandwidth,
	// delivery one wire latency later — the same shape as the chunked
	// model's uncontended cut-through.
	k, n := flowNet(t, 2, 1e9) // 1 byte/ns
	const size = 1 << 20
	tr := send(n, 0, 1, size)
	k.Run()
	if !tr.Injected.Done() || !tr.Delivered.Done() {
		t.Fatal("flow transfer did not complete")
	}
	approx(t, "Injected", tr.Injected.DoneAt(), sim.Time(size), 2)
	approx(t, "Delivered", tr.Delivered.DoneAt(), sim.Time(size)+sim.Microsecond, 2)
}

func TestFlowFairShareOnSharedTx(t *testing.T) {
	// Two equal flows out of the same NIC to distinct destinations
	// split the injection bandwidth and finish together at 2·S/bw.
	k, n := flowNet(t, 3, 1e9)
	const size = 1 << 20
	a := send(n, 0, 1, size)
	b := send(n, 0, 2, size)
	k.Run()
	approx(t, "a.Injected", a.Injected.DoneAt(), 2*sim.Time(size), 4)
	approx(t, "b.Injected", b.Injected.DoneAt(), 2*sim.Time(size), 4)
}

func TestFlowMaxMinAsymmetric(t *testing.T) {
	// A: 0→1, B: 0→2, C: 3→2, D: 3→2. The rx link of node 2 carries
	// three flows (bottleneck share bw/3); A then picks up the slack on
	// node 0's tx link: 2bw/3. Progressive filling, not equal split.
	k, n := flowNet(t, 4, 1e9)
	const size = 1 << 20
	a := send(n, 0, 1, size)
	b := send(n, 0, 2, size)
	c := send(n, 3, 2, size)
	d := send(n, 3, 2, size)
	k.Run()
	// A at rate 2bw/3 finishes at 1.5·S; B, C, D at bw/3 finish at 3·S
	// (A's departure does not lift the rx-2 bottleneck).
	approx(t, "a.Injected", a.Injected.DoneAt(), sim.Time(3*size/2), 8)
	for name, tr := range map[string]sent{"b": b, "c": c, "d": d} {
		approx(t, name+".Injected", tr.Injected.DoneAt(), sim.Time(3*size), 8)
	}
}

func TestFlowArrivalRecomputesRates(t *testing.T) {
	// A runs alone for 1 ms, then B arrives on the same tx link: A's
	// remaining bytes proceed at half rate. Piecewise-linear progress.
	k, n := flowNet(t, 3, 1e9)
	const sa = 2 << 20 // ~2.1 ms alone
	const sb = 1 << 20
	a := send(n, 0, 1, sa)
	var b sent
	k.After(sim.Millisecond, func() { b = send(n, 0, 2, sb) })
	k.Run()
	// B: sb bytes at bw/2 — it never runs uncontended (A finishes later).
	wantB := sim.Millisecond + 2*sim.Time(sb)
	approx(t, "b.Injected", b.Injected.DoneAt(), wantB, 8)
	// A: 1e6 bytes alone in the first ms, then sb more at bw/2 while B
	// drains, then the remainder at full rate once B departs.
	wantA := wantB + sim.Time(sa-1_000_000-sb)
	approx(t, "a.Injected", a.Injected.DoneAt(), wantA, 8)
}

// sendMilestones is SendFlowMilestones completing test-made futures.
func sendMilestones(n *Network, from, to int, size int64, offs []int64) (*Transfer, []*sim.Future) {
	ms := make([]*sim.Future, len(offs))
	for i := range ms {
		ms[i] = newFuture(n.k)
	}
	return n.SendFlowMilestones(from, to, size, offs, ms), ms
}

func TestFlowMilestones(t *testing.T) {
	// Milestones complete one latency after their byte offset crosses,
	// in order, and the final milestone coincides with delivery.
	k, n := flowNet(t, 2, 1e9)
	const size = 1 << 20
	tr, ms := sendMilestones(n, 0, 1, size, []int64{size / 4, size / 2, size})
	kept := keep(n, tr)
	k.Run()
	lat := sim.Microsecond
	approx(t, "ms[0]", ms[0].DoneAt(), sim.Time(size/4)+lat, 4)
	approx(t, "ms[1]", ms[1].DoneAt(), sim.Time(size/2)+lat, 4)
	approx(t, "ms[2]", ms[2].DoneAt(), sim.Time(size)+lat, 4)
	approx(t, "Delivered", kept.Delivered.DoneAt(), sim.Time(size)+lat, 4)
	if ms[1].DoneAt() < ms[0].DoneAt() || ms[2].DoneAt() < ms[1].DoneAt() {
		t.Error("milestones completed out of order")
	}
}

func TestFlowSmallMessagesKeepExactPath(t *testing.T) {
	// Below FlowMinBytes the exact server path serves the message:
	// completion at the server's deterministic service time, identical
	// to a ModelChunked network.
	k, n := flowNet(t, 2, 1e9)
	const size = 1 << 10 // 1 KiB < 64 KiB threshold
	tr := send(n, 0, 1, size)

	kc := sim.NewKernel(1)
	nc := New(kc, Config{Nodes: 2, InterBandwidth: 1e9, InterLatency: sim.Microsecond,
		IntraBandwidth: 5e9, IntraLatency: 100 * sim.Nanosecond, MemBandwidth: 10e9})
	trc := send(nc, 0, 1, size)

	k.Run()
	kc.Run()
	if got, want := tr.Delivered.DoneAt(), trc.Delivered.DoneAt(); got != want {
		t.Errorf("sub-threshold flow-mode delivery %v differs from chunked %v", got, want)
	}
}

func TestFlowIntraNodeKeepsExactPath(t *testing.T) {
	// An intra-node bulk transfer rides the fluid model's ipc link
	// class (not the exact path the name recalls): alone on its node it
	// costs what the exact ipc server charges, so the two models agree
	// on uncontended same-node traffic.
	k, n := flowNet(t, 2, 1e9)
	const size = 8 << 20 // far above the threshold, but intra-node
	tr := send(n, 1, 1, size)
	k.Run()
	// ipc server: IntraLatency + size/IntraBandwidth.
	svc := float64(size) / 5e9 * 1e9
	want := 100*sim.Nanosecond + sim.Time(svc)
	approx(t, "intra Delivered", tr.Delivered.DoneAt(), want, 4)
}

func TestFlowDeterminism(t *testing.T) {
	run := func() []sim.Time {
		k, n := flowNet(t, 4, 3.4e9)
		var trs []sent
		for i := 0; i < 12; i++ {
			from, to := i%3, 1+i%3
			if from == to {
				to = (to + 1) % 4
			}
			trs = append(trs, send(n, from, to, int64(1<<20+i*4096)))
		}
		k.Run()
		var out []sim.Time
		for _, tr := range trs {
			out = append(out, tr.Injected.DoneAt(), tr.Delivered.DoneAt())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow mode nondeterministic at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlowIndependentOfDisjointFlows(t *testing.T) {
	// A flow's crossings come from its own (served, at, rate) state, so
	// traffic on links it does not share cannot move them — not even
	// through the float accumulation of unrelated solver steps. One 0→1
	// flow with a milestone every MiB runs alone, then beside twenty
	// 2→3 flows arriving at seeded instants over its lifetime; every
	// instant must match the lone run bit for bit.
	const k = 1 << 20
	run := func(seed int64, others bool) []sim.Time {
		kn, n := flowNet(t, 4, 2.6e9)
		offs := make([]int64, 13)
		for i := range offs {
			offs[i] = int64(i+1) * k
		}
		tr, ms := sendMilestones(n, 0, 1, 13*k, offs)
		s := keep(n, tr)
		if others {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				at := sim.Time(rng.Int63n(int64(5 * sim.Millisecond)))
				size := int64(64<<10 + rng.Intn(2<<20))
				kn.At(at, func() { n.Send(2, 3, size) })
			}
		}
		kn.Run()
		out := []sim.Time{s.Injected.DoneAt(), s.Delivered.DoneAt()}
		for _, m := range ms {
			out = append(out, m.DoneAt())
		}
		return out
	}
	alone := run(0, false)
	moved := 0
	for seed := int64(1); seed <= 200; seed++ {
		got := run(seed, true)
		for i := range got {
			if got[i] != alone[i] {
				if moved == 0 {
					t.Errorf("seed %d instant %d: %d ns, alone %d ns", seed, i, int64(got[i]), int64(alone[i]))
				}
				moved++
				break
			}
		}
	}
	if moved > 0 {
		t.Errorf("disjoint traffic moved the flow's instants on %d of 200 seeds", moved)
	}
}

// refFluid is a global fluid solver, the differential reference for
// fluidNet: every step integrates all active flows, recomputes every
// rate by progressive filling over all of them and schedules the next
// tick at the earliest predicted crossing.
type refFluid struct {
	k       *sim.Kernel
	bw, ibw float64
	lat     sim.Time
	ilat    sim.Time
	nodes   int
	flows   []*refFlow
	lastAt  sim.Time
	gen     uint64
	pending bool
	count   []int32
	cap     []float64
	active  []int32
}

type refFlow struct {
	intra               bool
	links               [2]int32
	nlinks              int
	size, served, rate  float64
	injected, delivered *sim.Future
	marks               []flowMark
	nextMark            int
}

func newRefFluid(k *sim.Kernel, nodes int, bw, ibw float64, lat, ilat sim.Time) *refFluid {
	return &refFluid{k: k, bw: bw, ibw: ibw, lat: lat, ilat: ilat, nodes: nodes,
		count: make([]int32, 3*nodes), cap: make([]float64, 3*nodes)}
}

// submit starts one flow and returns its injection and delivery
// futures; each mark's future completes one latency after its offset.
func (fl *refFluid) submit(from, to int, size int64, marks []flowMark) (inj, del *sim.Future) {
	f := &refFlow{intra: from == to, size: float64(size), marks: marks,
		injected: newFuture(fl.k), delivered: newFuture(fl.k)}
	if f.intra {
		f.links[0], f.nlinks = int32(2*fl.nodes+from), 1
	} else {
		f.links, f.nlinks = [2]int32{int32(from), int32(fl.nodes + to)}, 2
	}
	fl.flows = append(fl.flows, f)
	if !fl.pending {
		fl.pending = true
		fl.k.After(0, fl.step)
	}
	return f.injected, f.delivered
}

func (fl *refFluid) step() {
	fl.pending = false
	fl.gen++
	now := fl.k.Now()
	fl.advance(now)
	fl.recompute()
	fl.scheduleNext(now)
}

func (fl *refFluid) advance(now sim.Time) {
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
			for f.nextMark < len(f.marks) {
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

func (fl *refFluid) recompute() {
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
		f.rate = -1
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

func (fl *refFluid) scheduleNext(now sim.Time) {
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

func TestFlowMatchesGlobalSolver(t *testing.T) {
	// The per-component solver against the global reference on seeded
	// mixes with shared links, intra- and inter-node flows, staggered
	// arrivals and milestones. The two differ only in float
	// accumulation: the reference integrates every flow at every step,
	// so unrelated steps can leave a flow's served bytes a hair short
	// and its tick one nanosecond late, while the component solver
	// crosses at the first nanosecond within flowEps of the target. So
	// no instant may come later than the reference's. An earlier
	// departure hands its share to the flows left on its links one
	// nanosecond sooner, and the bytes they gain are worth more than a
	// nanosecond to a flow that later runs at a smaller share, so a
	// knock-on instant may lead by a few nanoseconds (maxLead).
	const maxLead = 4
	total, earlier, lead := 0, 0, sim.Time(0)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(6)
		bw := []float64{1e9, 2.6e9, 3.4e9}[rng.Intn(3)]
		k, n := flowNet(t, nodes, bw)
		cfg := n.Config()
		rk := sim.NewKernel(1)
		ref := newRefFluid(rk, nodes, cfg.InterBandwidth, cfg.IntraBandwidth, cfg.InterLatency, cfg.IntraLatency)

		var got, want []*sim.Future
		for i := 0; i < 60; i++ {
			from, to := rng.Intn(nodes), rng.Intn(nodes)
			size := int64(64<<10 + rng.Intn(4<<20))
			at := sim.Time(rng.Int63n(int64(3 * sim.Millisecond)))
			var offs []int64
			if from != to && i%4 == 0 {
				for j, nm := 0, 1+rng.Intn(4); j < nm; j++ {
					offs = append(offs, 1+rng.Int63n(size))
				}
				slices.Sort(offs)
			}
			base := len(got)
			got = append(got, make([]*sim.Future, 2+len(offs))...)
			k.At(at, func() {
				var tr *Transfer
				if offs == nil {
					tr = n.Send(from, to, size)
				} else {
					var ms []*sim.Future
					tr, ms = sendMilestones(n, from, to, size, offs)
					copy(got[base+2:], ms)
				}
				s := keep(n, tr)
				got[base], got[base+1] = s.Injected, s.Delivered
			})
			marks := make([]flowMark, len(offs))
			for j, off := range offs {
				marks[j] = flowMark{bytes: float64(off), fut: newFuture(rk)}
			}
			w := len(want)
			want = append(want, nil, nil)
			for _, m := range marks {
				want = append(want, m.fut)
			}
			rk.At(at, func() { want[w], want[w+1] = ref.submit(from, to, size, marks) })
		}
		k.Run()
		rk.Run()
		for i := range got {
			g, w := got[i].DoneAt(), want[i].DoneAt()
			if !got[i].Done() || !want[i].Done() {
				t.Fatalf("seed %d instant %d: incomplete (got %v, reference %v)", seed, i, got[i].Done(), want[i].Done())
			}
			total++
			if g != w {
				earlier++
				lead = max(lead, w-g)
			}
			if g > w || w-g > maxLead {
				t.Errorf("seed %d instant %d: %d ns, reference %d ns", seed, i, int64(g), int64(w))
			}
		}
	}
	t.Logf("%d of %d instants identical to the global solver, %d earlier (by at most %d ns)", total-earlier, total, earlier, int64(lead))
}
