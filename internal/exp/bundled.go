package exp

import (
	"fmt"
	"slices"

	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/simnet"
	"collio/internal/workload"
)

// This file is the bundled cohort executor: the 100k–1M-rank fast path.
//
// The exact executor simulates every rank as a live coroutine inside an
// mpi.World; its cost is dominated by per-rank state (stacks, futures,
// request pools) and by the collective ladders (the per-cycle
// AlltoallSync alone is P·log2(P) messages). The bundled executor
// exploits the rank symmetry that fcoll.DetectCohorts certifies: when
// the non-aggregator ranks collapse into a small number of behavioural
// cohorts, their per-rank execution carries no information beyond the
// plan itself, so the run can be driven by the plan directly:
//
//   - Non-aggregator ranks run as event wiring, not coroutines. Each
//     cycle's shuffle traffic is batched per (source node, aggregator)
//     and issued as one network flow; per-member completion instants
//     are replayed out of the batch by byte offset (fluid-model
//     milestones under -netmodel flow, linear interpolation under
//     chunked) when instrumentation asks for them.
//   - Aggregators stay real: one sim.Proc each, running the selected
//     overlap algorithm's fcoll.Drive driver — the same code an exact
//     rank runs — against the real simulated file system and network.
//   - Collective control ladders (JobView.Control: the setup
//     allreduces and allgatherv, the per-cycle alltoall, the final
//     barrier) are charged in closed form (mpi.CostModel, over the same
//     rounds the exact ladders send), at rendezvous points that
//     preserve their global-synchronisation semantics.
//
// The result is O(aggregators + nodes) simulation state instead of
// O(ranks), at the price of modelled rather than simulated collective
// ladders — which is why bundled results are validated against the
// exact executor by makespan tolerance, not digest equality (DESIGN.md
// §14 quantifies the error model).

// rendezvous is a modelled global synchronisation point: need arrivals
// (every aggregator plus one for the bundled non-aggregator members),
// release at the latest arrival plus the closed-form collective cost.
// Arrivals come in time order, so the latest is the one that completes
// the count.
type rendezvous struct {
	k    *sim.Kernel
	need int
	n    int
	cost sim.Time
	fut  sim.Future
}

func (rv *rendezvous) init(k *sim.Kernel, need int, cost sim.Time) {
	rv.k, rv.need, rv.cost = k, need, cost
	k.InitFuture(&rv.fut)
}

func (rv *rendezvous) arrive() {
	if rv.n++; rv.n == rv.need {
		rv.k.CompleteAfter(rv.cost, &rv.fut)
	}
}

// cohortView is the per-collective execution state of one JobView and
// the start of its member wiring: one setup cost after the view starts
// (begin), the members arrive at the first cycle's alltoall (enter).
type cohortView struct {
	b     *cohortRun
	jv    *fcoll.JobView
	sched *fcoll.Schedule
	setup sim.Time     // closed-form plan-establishment cost
	start *sim.Future  // the previous view's closing barrier, or the run's start
	syncs []rendezvous // per cycle: the cycle-framing alltoall
	final rendezvous   // the collective's closing barrier
	// cycles[c] is cycle c's member wiring and what aggregator a waits
	// for: cycles[c].recv[a].
	cycles []cohortCycle
	// shufBytes is each rank's shuffled byte count (probed runs only).
	shufBytes []int64

	begin, enter sim.Event[cohortView]
}

// cohortCycle is one cycle of the member wiring: at its alltoall's
// release (open) it sends its batches, and when the last batch is
// injected (injected, a join; the members' local send completion) the
// members advance to the next rendezvous.
type cohortCycle struct {
	v        *cohortView
	c        int
	batches  []cohortBatch
	injs     []*sim.Future // every batch's inj, in send order
	injected sim.Future
	recv     []cohortRecv // per aggregator
	open     sim.Event[cohortCycle]
	advance  sim.Event[cohortCycle]
}

// cohortRecv is one aggregator's inbound side of one cycle: delivered
// joins its batches' deliveries and forwards into done, which the
// aggregator waits on; unpack is the staged-scatter copy volume it
// then pays.
type cohortRecv struct {
	dels      []*sim.Future
	delivered sim.Future
	done      sim.Future
	unpack    int64
}

// cohortBatch is one (source node, aggregator) transfer of one cycle:
// the cycle's shuffle from the node's members to the aggregator, with
// the pack copy (multi-segment sends) charged on the source node's
// memory engine before the wire sees it. copied ends the copy and
// relays, one hop later, to send, which puts the batch on the wire;
// inj and del forward the transfer's completions into the cycle's
// joins.
type cohortBatch struct {
	cy         *cohortCycle
	node       int // source node
	agg        int // aggregator index
	size, pack int64
	obs        *cohortMembers // observed runs only
	t0         sim.Time       // when send ran
	inj, del   sim.Future
	copied     sim.Event[cohortBatch]
	send       sim.Event[cohortBatch]
	spread     sim.Event[cohortBatch]
}

// cohortMembers is an observed batch's member ranks, and under -netmodel
// flow, across nodes and with more than one member, their byte
// milestones: the fluid solver completes notes[i].done when the flow
// has carried offsets[i] bytes.
type cohortMembers struct {
	mems    []memberSend
	offsets []int64
	futs    []*sim.Future
	notes   []cohortNote
}

// cohortNote is one member's milestone in a flow batch; its step
// records the member's shuffle span.
type cohortNote struct {
	bt   *cohortBatch
	rank int
	done sim.Future
	emit sim.Event[cohortNote]
}

// cohortRun is the bundled executor for one spec. The name is
// load-bearing for collvet: the lookahead analyzer rejects any
// ScheduleRemote reachable from a cohort receiver, because cohort
// replay wiring runs below the partition lookahead by construction.
type cohortRun struct {
	k     *sim.Kernel
	net   *simnet.Network
	file  *simfs.File
	cost  mpi.CostModel
	np    int
	rpn   int
	nodes int
	flow  bool
	algo  fcoll.Algorithm

	obs fcoll.Observer

	started sim.Future // the first view's start, complete from the outset
	views   []*cohortView
}

// cohortPlan is the bundled executor's dynamic gate, shared by routeFor
// and Collapsible: it builds spec's views and every view's collective
// plan and runs cohort detection, simulating nothing. It returns the
// plans when every view collapses into rank-symmetric cohorts, and nil
// plans otherwise — an asymmetric workload, where bundling would not pay
// and the batch-level approximation is not certified.
func cohortPlan(spec Spec) ([]*fcoll.JobView, []*fcoll.Schedule, error) {
	views, err := spec.Gen.Views(spec.NProcs, false, workloadSeed)
	if err != nil {
		return nil, nil, err
	}
	opts := spec.collOptions()
	scheds := make([]*fcoll.Schedule, len(views))
	for i, jv := range views {
		s, err := fcoll.BuildSchedule(jv, spec.NProcs, spec.Platform.RanksPerNode, opts)
		if err != nil {
			return nil, nil, err
		}
		if !fcoll.DetectCohorts(s).Collapses() {
			return views, nil, nil
		}
		scheds[i] = s
	}
	return views, scheds, nil
}

// Collapsible reports whether gen's views at nprocs collapse into
// rank-symmetric cohorts under the default collective options — i.e.
// whether a -bundle run would actually take the bundled fast path
// rather than silently falling back to the exact executor. It is a
// static probe (cohortPlan): it builds the views and plans but
// simulates nothing, so it costs milliseconds where the exact run it
// predicts can cost hours.
func Collapsible(gen workload.Generator, pf platform.Platform, nprocs int) bool {
	_, scheds, err := cohortPlan(Spec{Platform: pf, NProcs: nprocs, Gen: gen})
	return err == nil && scheds != nil
}

// newCohortRun builds the bundled executor for spec over the cluster
// cl and the plans routeFor certified: every view's state and member
// wiring, the views chained so that view v+1 starts at view v's
// closing barrier. The aggregators are runBundled's.
func newCohortRun(spec Spec, cl *platform.Cluster, rt route, obs fcoll.Observer) *cohortRun {
	pf := cl.Platform
	b := &cohortRun{
		k:     cl.Kernel,
		net:   cl.Net,
		file:  cl.FS.Open(spec.Gen.Name()),
		cost:  mpi.CostModel{Config: mpi.DefaultConfig(spec.NProcs, pf.RanksPerNode), Net: cl.Net.Config()},
		np:    spec.NProcs,
		rpn:   pf.RanksPerNode,
		nodes: (spec.NProcs + pf.RanksPerNode - 1) / pf.RanksPerNode,
		flow:  pf.NetModel == simnet.ModelFlow,
		algo:  spec.Algorithm,
		obs:   obs,
	}
	b.k.InitFuture(&b.started)
	b.started.Complete()
	start := &b.started
	for i, s := range rt.scheds {
		v := b.buildView(s, rt.views[i], start)
		b.views = append(b.views, v)
		b.wireMembers(v)
		start = &v.final.fut
	}
	return b
}

// runBundled runs spec on the bundled cohort executor over the cluster
// cl (InstantiateBundled) and the plans routeFor certified, with the
// collective engine reporting to obs. JRun is ignored: the bundled
// executor is sequential (and far cheaper than any partitioned exact
// run).
func runBundled(spec Spec, cl *platform.Cluster, rt route, obs fcoll.Observer) (Metrics, error) {
	b := newCohortRun(spec, cl, rt, obs)
	aggs := make([]aggRun, len(rt.scheds[0].AggRanks()))
	// Drive fails only on an unknown algorithm, before any operation:
	// every aggregator then stops at its first view.
	var driveErr error
	for a := range aggs {
		ag := &aggs[a]
		ag.b, ag.a = b, a
		for s := range ag.wr {
			ag.wr[s].ag = ag
			ag.wr[s].span = sim.NewEvent(&ag.wr[s], (*cohortWrite).record)
		}
		b.k.Spawn("agg", a, func(p *sim.Proc) {
			ag.p = p
			for _, v := range b.views {
				p.Wait(v.start)
				p.Sleep(v.setup)
				ag.v = v
				ag.rank = v.sched.AggRanks()[a]
				ag.node = ag.rank / b.rpn
				if err := fcoll.Drive(b.algo, fcoll.Write, ag); err != nil {
					driveErr = err
					return
				}
				tSync := p.Now()
				v.final.arrive()
				p.Wait(&v.final.fut)
				b.obs.Phase(probe.CauseSync, ag.rank, -1, tSync, p.Now(), 0)
			}
		})
	}
	b.k.Run()
	if driveErr != nil {
		return Metrics{}, driveErr
	}

	last := b.views[len(b.views)-1]
	if !last.final.fut.Done() {
		return Metrics{}, fmt.Errorf("exp: bundled execution stalled (deadlocked rendezvous)")
	}
	var m Metrics
	m.Elapsed = last.final.fut.DoneAt()
	m.Cycles = b.views[0].sched.NCycles()
	m.Aggregators = len(aggs)
	for i := range aggs {
		ag := &aggs[i]
		m.BytesWritten += ag.bytesWritten
		if ag.shuffleTime > m.ShuffleTime {
			m.ShuffleTime = ag.shuffleTime
		}
		if ag.writeTime > m.WriteTime {
			m.WriteTime = ag.writeTime
		}
	}
	b.emitCollOps()
	return m, nil
}

// buildView allocates the rendezvous chain, completion futures and
// member batches of one collective, which starts when start completes.
// Everything the member wiring touches per cycle is allocated here,
// once per view, with its steps bound.
func (b *cohortRun) buildView(sched *fcoll.Schedule, jv *fcoll.JobView, start *sim.Future) *cohortView {
	nc := sched.NCycles()
	naggs := len(sched.AggRanks())
	ctl := jv.Control(fcoll.Write)
	v := &cohortView{b: b, jv: jv, sched: sched, start: start}
	for _, c := range ctl.Setup {
		v.setup += b.cost.Cost(c)
	}
	if b.obs.Probe != nil {
		v.shufBytes = make([]int64, b.np)
	}
	a2a := b.cost.Cost(ctl.Cycle)
	v.syncs = make([]rendezvous, nc)
	for c := range v.syncs {
		v.syncs[c].init(b.k, naggs+1, a2a)
	}
	v.final.init(b.k, naggs+1, b.cost.Cost(ctl.Final))
	v.begin = sim.NewEvent(v, (*cohortView).delaySetup)
	v.enter = sim.NewEvent(v, (*cohortView).arriveFirst)
	v.cycles = make([]cohortCycle, nc)
	for c := range v.cycles {
		b.buildCycle(v, c)
	}
	return v
}

// buildCycle fills cycle c's member wiring: one batch per (source
// node, aggregator) pair the cycle's shuffle uses, in the order the
// nodes' ranks first send to each aggregator, and each aggregator's
// inbound join and unpack volume.
func (b *cohortRun) buildCycle(v *cohortView, c int) {
	sched := v.sched
	naggs := len(sched.AggRanks())
	cy := &v.cycles[c]
	cy.v, cy.c = v, c
	// Count the batches first, so the array is allocated at its final
	// size: growing it by append would allocate it several times over.
	var aggs []int
	n := 0
	for nd := 0; nd < b.nodes; nd++ {
		aggs = aggs[:0]
		for r := nd * b.rpn; r < min((nd+1)*b.rpn, b.np); r++ {
			sched.EachSend(r, c, func(agg int, _ int64, _ int) {
				if !slices.Contains(aggs, agg) {
					aggs = append(aggs, agg)
				}
			})
		}
		n += len(aggs)
	}
	bs := make([]cohortBatch, 0, n)
	for nd := 0; nd < b.nodes; nd++ {
		first := len(bs)
		for r := nd * b.rpn; r < min((nd+1)*b.rpn, b.np); r++ {
			sched.EachSend(r, c, func(agg int, total int64, nseg int) {
				j := first
				for j < len(bs) && bs[j].agg != agg {
					j++
				}
				if j == len(bs) {
					bs = append(bs, cohortBatch{node: nd, agg: agg})
					if b.obs.On() {
						bs[j].obs = &cohortMembers{}
					}
				}
				bt := &bs[j]
				bt.size += total
				if nseg > 1 {
					bt.pack += total
				}
				if bt.obs != nil {
					bt.obs.mems = append(bt.obs.mems, memberSend{r, total})
				}
				if v.shufBytes != nil {
					v.shufBytes[r] += total
				}
			})
		}
	}
	cy.batches = bs
	cy.recv = make([]cohortRecv, naggs)
	cy.injs = make([]*sim.Future, len(cy.batches))
	dels := make([]*sim.Future, len(cy.batches))
	nDels := make([]int, naggs+1)
	for i := range cy.batches {
		bt := &cy.batches[i]
		bt.cy = cy
		b.k.InitFuture(&bt.inj)
		b.k.InitFuture(&bt.del)
		bt.copied = sim.NewEvent(bt, (*cohortBatch).relay)
		bt.send = sim.NewEvent(bt, (*cohortBatch).transmit)
		bt.spread = sim.NewEvent(bt, (*cohortBatch).interpolate)
		cy.injs[i] = &bt.inj
		nDels[bt.agg+1]++
		if bt.obs != nil && b.flow && bt.node != b.aggNode(v, bt.agg) && len(bt.obs.mems) > 1 {
			bt.milestones()
		}
	}
	// Each aggregator's deliveries, in send order, as one slice of dels.
	for a := 0; a < naggs; a++ {
		nDels[a+1] += nDels[a]
	}
	for i := range cy.batches {
		bt := &cy.batches[i]
		dels[nDels[bt.agg]] = &bt.del
		nDels[bt.agg]++
	}
	lo := 0
	for a := range cy.recv {
		rc := &cy.recv[a]
		rc.dels, lo = dels[lo:nDels[a]], nDels[a]
		b.k.InitFuture(&rc.done)
		sched.EachRecv(a, c, func(_ int, total int64, nseg int) {
			if nseg > 1 {
				rc.unpack += total
			}
		})
	}
	cy.open = sim.NewEvent(cy, (*cohortCycle).sendBatches)
	cy.advance = sim.NewEvent(cy, (*cohortCycle).arriveNext)
}

// milestones sets up a flow batch's member notes: note i completes
// when the flow has carried members 0..i's bytes.
func (bt *cohortBatch) milestones() {
	k, m := bt.cy.v.b.k, bt.obs
	n := len(m.mems)
	m.offsets = make([]int64, n)
	m.futs = make([]*sim.Future, n)
	m.notes = make([]cohortNote, n)
	var cum int64
	for i, ms := range m.mems {
		cum += ms.bytes
		m.offsets[i] = cum
		nt := &m.notes[i]
		nt.bt, nt.rank = bt, ms.rank
		k.InitFuture(&nt.done)
		nt.emit = sim.NewEvent(nt, (*cohortNote).record)
		nt.done.Then(&nt.emit)
		m.futs[i] = &nt.done
	}
}

// aggNode is the node of aggregator a of v.
func (b *cohortRun) aggNode(v *cohortView, a int) int { return v.sched.AggRanks()[a] / b.rpn }

// wireMembers installs the event chain that stands in for every
// non-aggregator coroutine: arrive at the first cycle's alltoall one
// setup cost after the view starts, send each cycle's batched traffic
// at its alltoall release, and advance to the next rendezvous when the
// cycle's last batch has been injected.
func (b *cohortRun) wireMembers(v *cohortView) {
	v.start.Then(&v.begin)
	for c := range v.cycles {
		v.syncs[c].fut.Then(&v.cycles[c].open)
	}
}

// delaySetup waits out the view's closed-form setup cost.
func (v *cohortView) delaySetup() { v.b.k.AfterAction(v.setup, &v.enter) }

// arriveFirst brings the members to the first cycle's alltoall, or
// straight to the closing barrier when the view has no cycles.
func (v *cohortView) arriveFirst() {
	if len(v.syncs) == 0 {
		v.final.arrive()
		return
	}
	v.syncs[0].arrive()
}

// memberSend is one rank's contribution to a batched transfer
// (instrumented runs only — the scale path never materialises it).
type memberSend struct {
	rank  int
	bytes int64
}

// sendBatches sends the cycle's complete shuffle as one transfer per
// (source node, aggregator) pair, each after its pack copy. Aggregator
// a's recv[a].done completes when its inbound batches are delivered;
// the member bundle arrives at the next rendezvous when all batches
// are injected (the members' local send completion).
func (cy *cohortCycle) sendBatches() {
	b := cy.v.b
	for i := range cy.batches {
		bt := &cy.batches[i]
		if bt.pack > 0 {
			b.net.MemcpyTo(&bt.copied, bt.node, bt.pack)
		} else {
			bt.transmit()
		}
	}
	for a := range cy.recv {
		rc := &cy.recv[a]
		b.k.InitJoin(&rc.delivered, rc.dels...)
		rc.delivered.Then(&rc.done)
	}
	b.k.InitJoin(&cy.injected, cy.injs...)
	cy.injected.Then(&cy.advance)
}

// arriveNext brings the members to the next cycle's alltoall, or to the
// closing barrier after the last cycle.
func (cy *cohortCycle) arriveNext() {
	v := cy.v
	if cy.c+1 < len(v.syncs) {
		v.syncs[cy.c+1].arrive()
	} else {
		v.final.arrive()
	}
}

// release is when the cycle's alltoall released the members.
func (cy *cohortCycle) release() sim.Time { return cy.v.syncs[cy.c].fut.DoneAt() }

// relay ends the pack copy; the batch goes on the wire one hop later.
func (bt *cohortBatch) relay() { bt.cy.v.b.k.AfterAction(0, &bt.send) }

// transmit puts the batch on the wire and forwards its completions.
// Under -netmodel flow with instrumentation, the batch carries
// per-member byte milestones so each member's completion instant
// comes from the fluid solver; otherwise member instants are
// interpolated linearly when the batch is injected (spread).
func (bt *cohortBatch) transmit() {
	b := bt.cy.v.b
	bt.t0 = b.k.Now()
	aggNode := b.aggNode(bt.cy.v, bt.agg)
	var tr *simnet.Transfer
	if m := bt.obs; m != nil && m.notes != nil {
		tr = b.net.SendFlowMilestones(bt.node, aggNode, bt.size, m.offsets, m.futs)
	} else {
		tr = b.net.SendFlow(nil, bt.node, aggNode, bt.size)
		if m != nil && len(m.mems) > 0 {
			tr.Injected().Then(&bt.spread)
		}
	}
	tr.Injected().Then(&bt.inj)
	tr.Delivered().Then(&bt.del)
}

// interpolate records each member's shuffle span at the instant the
// batch had carried its bytes, interpolated linearly over the batch's
// injection.
func (bt *cohortBatch) interpolate() {
	b := bt.cy.v.b
	end := b.k.Now()
	var cum int64
	for _, m := range bt.obs.mems {
		cum += m.bytes
		t := bt.t0 + sim.Time(float64(end-bt.t0)*float64(cum)/float64(bt.size))
		b.obs.Phase(probe.CauseShuffle, m.rank, bt.cy.c, bt.cy.release(), t, 0)
	}
}

// record is a flow note's step: its member's bytes have arrived.
func (nt *cohortNote) record() {
	cy := nt.bt.cy
	b := cy.v.b
	b.obs.Phase(probe.CauseShuffle, nt.rank, cy.c, cy.release(), b.k.Now(), 0)
}

// emitCollOps records every rank's end of every view through
// fcoll.Observer.CollOp, as exact ranks do inside their coroutines: one
// KindCollOp span per rank per view plus the byte-conservation
// counters. Emission happens after the run (ordering differs from exact
// mode; bundled telemetry is validated for self-consistency, not digest
// equality — DESIGN.md §14).
func (b *cohortRun) emitCollOps() {
	if b.obs.Probe == nil {
		return
	}
	written := make([]int64, b.np)
	total := make([]int64, b.np) // each rank's running total, the span size
	for _, v := range b.views {
		clear(written)
		for a, rank := range v.sched.AggRanks() {
			for c := 0; c < v.sched.NCycles(); c++ {
				written[rank] += v.sched.CycleExtent(a, c).Len
			}
			total[rank] += written[rank]
		}
		for r := 0; r < b.np; r++ {
			b.obs.CollOp(v.jv, fcoll.Write, r, fcoll.CollStats{
				Start: v.start.DoneAt(), End: v.final.fut.DoneAt(), Cycles: v.sched.NCycles(),
				Shuffled: v.shufBytes[r], Written: written[r], Size: total[r],
			})
		}
	}
}

// aggRun is one aggregator's fcoll.Cycles for one view at a time: the
// bundled substitutes are a rendezvous for the cycle alltoall, the
// precomputed recvDone future for shuffle completion, and the real
// simulated file for writes. fcoll.Drive runs the selected algorithm on
// it, the same drivers an exact rank runs. Its fill is aggShuffle and
// its drain aggWrite; both keep their in-flight state per sub-buffer
// slot, though the bundled executor moves no bytes through them.
type aggRun struct {
	b    *cohortRun
	p    *sim.Proc
	v    *cohortView
	a    int
	rank int
	node int
	sh   [2]struct { // in-flight shuffle per sub-buffer slot
		cycle  int
		initAt sim.Time
		open   bool
	}
	wr     [2]cohortWrite // in-flight write per sub-buffer slot
	copied sim.Future     // the staged-scatter copy's completion

	shuffleTime  sim.Time
	writeTime    sim.Time
	bytesWritten int64
}

func (ag *aggRun) NCycles() int       { return ag.v.sched.NCycles() }
func (ag *aggRun) Fill() fcoll.Stage  { return (*aggShuffle)(ag) }
func (ag *aggRun) Drain() fcoll.Stage { return (*aggWrite)(ag) }

// aggShuffle is the bundled shuffle stage.
type aggShuffle aggRun

// Init is the bundled cycle opening: arrive at the cycle's alltoall
// rendezvous and block until it releases (the de-facto global
// synchronisation the exact AlltoallSync provides).
func (s *aggShuffle) Init(c, slot int) {
	ag := (*aggRun)(s)
	t0 := ag.p.Now()
	ag.b.obs.Cycle(ag.rank, c, slot, t0)
	ag.v.syncs[c].arrive()
	ag.p.Wait(&ag.v.syncs[c].fut)
	ag.shuffleTime += ag.p.Now() - t0
	ag.sh[slot].cycle, ag.sh[slot].initAt, ag.sh[slot].open = c, t0, true
}

// Wait blocks until the slot's inbound traffic is delivered, then pays
// the staged-scatter copy.
func (s *aggShuffle) Wait(slot int) {
	ag := (*aggRun)(s)
	if !ag.sh[slot].open {
		return
	}
	ag.sh[slot].open = false
	c, initAt := ag.sh[slot].cycle, ag.sh[slot].initAt
	t0 := ag.p.Now()
	rc := &ag.v.cycles[c].recv[ag.a]
	ag.p.Wait(&rc.done)
	if u := rc.unpack; u > 0 {
		ag.b.k.InitFuture(&ag.copied)
		ag.b.net.MemcpyTo(&ag.copied, ag.node, u)
		ag.p.Wait(&ag.copied)
	}
	now := ag.p.Now()
	ag.shuffleTime += now - t0
	ag.b.obs.Phase(probe.CauseShuffle, ag.rank, c, initAt, now, 0)
}

func (s *aggShuffle) Sync(c, slot int) {
	s.Init(c, slot)
	s.Wait(slot)
}

// aggWrite is the bundled file write stage, on the real simulated file.
type aggWrite aggRun

func (w *aggWrite) Sync(c, _ int) {
	ag := (*aggRun)(w)
	ext := ag.v.sched.CycleExtent(ag.a, c)
	if ext.Len == 0 {
		return
	}
	t0 := ag.p.Now()
	ag.b.file.Write(ag.p, ag.node, ext.Off, ext.Len, nil)
	now := ag.p.Now()
	ag.writeTime += now - t0
	ag.bytesWritten += ext.Len
	ag.b.obs.Phase(probe.CauseWrite, ag.rank, c, t0, now, ext.Len)
}

// cohortWrite is one sub-buffer slot's asynchronous write: the
// operation in flight and, in observed runs, the span its completion
// records (span, a step bound once per aggregator).
type cohortWrite struct {
	ag    *aggRun
	fut   *sim.Future // in flight, nil when idle
	rank  int
	cycle int
	t0    sim.Time
	n     int64
	open  bool // span registered and not yet recorded
	span  sim.Event[cohortWrite]
}

// record is the span step: the write of n bytes started at t0 is done.
func (wr *cohortWrite) record() {
	wr.open = false
	ag := wr.ag
	ag.b.obs.Phase(probe.CauseWrite, wr.rank, wr.cycle, wr.t0, ag.b.k.Now(), wr.n)
}

func (w *aggWrite) Init(c, slot int) {
	ag := (*aggRun)(w)
	wr := &ag.wr[slot]
	wr.fut = nil
	ext := ag.v.sched.CycleExtent(ag.a, c)
	if ext.Len == 0 {
		return
	}
	ag.bytesWritten += ext.Len
	wr.fut = ag.b.file.AIOWrite(ag.node, ext.Off, ext.Len, nil)
	if ag.b.obs.On() {
		// A future's steps run before its waiters, so the slot's last
		// span has been recorded by the time the driver reuses it.
		if wr.open {
			panic(fmt.Sprintf("exp: aggregator %d reused write slot %d before its cycle-%d span was recorded", ag.rank, slot, wr.cycle))
		}
		wr.rank, wr.cycle, wr.t0, wr.n, wr.open = ag.rank, c, ag.p.Now(), ext.Len, true
		wr.fut.Then(&wr.span)
	}
}

func (w *aggWrite) Wait(slot int) {
	ag := (*aggRun)(w)
	f := ag.wr[slot].fut
	if f == nil {
		return
	}
	ag.wr[slot].fut = nil
	t0 := ag.p.Now()
	ag.p.Wait(f)
	ag.writeTime += ag.p.Now() - t0
}
