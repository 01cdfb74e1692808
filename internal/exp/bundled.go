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
	fut  *sim.Future
}

func (rv *rendezvous) arrive() {
	if rv.n++; rv.n == rv.need {
		rv.k.CompleteAfter(rv.cost, rv.fut)
	}
}

// viewState is the per-collective execution state of one JobView.
type viewState struct {
	jv    *fcoll.JobView
	sched *fcoll.Schedule
	setup sim.Time      // closed-form plan-establishment cost
	syncs []*rendezvous // per cycle: the cycle-framing alltoall
	final *rendezvous   // the collective's closing barrier
	// recvDone[c][a] completes when aggregator a's cycle-c inbound
	// traffic has been delivered; unpack[c][a] is the staged-scatter
	// copy volume the aggregator then pays.
	recvDone [][]*sim.Future
	unpack   [][]int64
	start    *sim.Future
	// shufBytes is each rank's shuffled byte count (probed runs only).
	shufBytes []int64
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

	views []*viewState
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

// runBundled runs spec on the bundled cohort executor over the cluster
// cl (InstantiateBundled) and the plans routeFor certified, with the
// collective engine reporting to obs. JRun is ignored: the bundled
// executor is sequential (and far cheaper than any partitioned exact
// run).
func runBundled(spec Spec, cl *platform.Cluster, rt route, obs fcoll.Observer) (Metrics, error) {
	pf := cl.Platform
	views, scheds := rt.views, rt.scheds
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

	// Build per-view state and chain the views: view v+1 starts at view
	// v's closing barrier.
	start := b.k.NewFuture()
	start.Complete()
	for i, s := range scheds {
		v := b.buildView(s, views[i])
		v.start = start
		b.views = append(b.views, v)
		b.wireMembers(v)
		start = v.final.fut
	}

	aggs := make([]aggRun, len(scheds[0].AggRanks()))
	// Drive fails only on an unknown algorithm, before any operation:
	// every aggregator then stops at its first view.
	var driveErr error
	for a := range aggs {
		ag := &aggs[a]
		ag.b, ag.a = b, a
		b.k.Spawn(fmt.Sprintf("agg%d", a), func(p *sim.Proc) {
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
				p.Wait(v.final.fut)
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

// buildView allocates the rendezvous chain and completion futures of
// one collective.
func (b *cohortRun) buildView(sched *fcoll.Schedule, jv *fcoll.JobView) *viewState {
	nc := sched.NCycles()
	naggs := len(sched.AggRanks())
	ctl := jv.Control(fcoll.Write)
	v := &viewState{jv: jv, sched: sched}
	for _, c := range ctl.Setup {
		v.setup += b.cost.Cost(c)
	}
	if b.obs.Probe != nil {
		v.shufBytes = make([]int64, b.np)
	}
	a2a := b.cost.Cost(ctl.Cycle)
	v.syncs = make([]*rendezvous, nc)
	for c := range v.syncs {
		v.syncs[c] = &rendezvous{k: b.k, need: naggs + 1, cost: a2a, fut: b.k.NewFuture()}
	}
	v.final = &rendezvous{k: b.k, need: naggs + 1, cost: b.cost.Cost(ctl.Final), fut: b.k.NewFuture()}
	v.recvDone = make([][]*sim.Future, nc)
	v.unpack = make([][]int64, nc)
	for c := 0; c < nc; c++ {
		v.recvDone[c] = make([]*sim.Future, naggs)
		v.unpack[c] = make([]int64, naggs)
		for a := 0; a < naggs; a++ {
			v.recvDone[c][a] = b.k.NewFuture()
			sched.EachRecv(a, c, func(_ int, total int64, nseg int) {
				if nseg > 1 {
					v.unpack[c][a] += total
				}
			})
		}
	}
	return v
}

// wireMembers installs the event chain that stands in for every
// non-aggregator coroutine: arrive at the first cycle's alltoall one
// setup cost after the view starts, issue each cycle's batched traffic
// at its alltoall release, and advance to the next rendezvous when the
// cycle's last batch has been injected.
func (b *cohortRun) wireMembers(v *viewState) {
	v.start.OnDone(func() {
		b.k.After(v.setup, func() {
			if len(v.syncs) == 0 {
				v.final.arrive()
				return
			}
			v.syncs[0].arrive()
		})
	})
	for c := range v.syncs {
		c := c
		v.syncs[c].fut.OnDone(func() { b.issueCycle(v, c) })
	}
}

// memberSend is one rank's contribution to a batched transfer
// (instrumented runs only — the scale path never materialises it).
type memberSend struct {
	rank  int
	bytes int64
}

// issueCycle issues cycle c's complete shuffle as one transfer per
// (source node, aggregator) pair. Pack copies (multi-segment sends) are
// charged on the source node's memory engine before the wire sees the
// batch. Aggregator a's recvDone completes when its inbound batches are
// delivered; the member bundle arrives at the next rendezvous when all
// batches are injected (the members' local send completion).
func (b *cohortRun) issueCycle(v *viewState, c int) {
	sched := v.sched
	naggs := len(sched.AggRanks())
	release := v.syncs[c].fut.DoneAt()
	var injs []*sim.Future
	delivered := make([][]*sim.Future, naggs)

	// Per-node batch scratch, reset per node.
	var (
		bAgg     []int
		bBytes   []int64
		bPack    []int64
		bMembers [][]memberSend
	)
	for nd := 0; nd < b.nodes; nd++ {
		bAgg, bBytes, bPack = bAgg[:0], bBytes[:0], bPack[:0]
		bMembers = bMembers[:0]
		lo, hi := nd*b.rpn, (nd+1)*b.rpn
		if hi > b.np {
			hi = b.np
		}
		for r := lo; r < hi; r++ {
			r := r
			sched.EachSend(r, c, func(agg int, total int64, nseg int) {
				j := slices.Index(bAgg, agg)
				if j < 0 {
					j = len(bAgg)
					bAgg = append(bAgg, agg)
					bBytes = append(bBytes, 0)
					bPack = append(bPack, 0)
					if b.obs.On() {
						bMembers = append(bMembers, nil)
					}
				}
				bBytes[j] += total
				if nseg > 1 {
					bPack[j] += total
				}
				if b.obs.On() {
					bMembers[j] = append(bMembers[j], memberSend{r, total})
				}
				if v.shufBytes != nil {
					v.shufBytes[r] += total
				}
			})
		}
		for j := range bAgg {
			agg, size := bAgg[j], bBytes[j]
			var mems []memberSend
			if b.obs.On() {
				mems = bMembers[j]
			}
			injF, delF := b.k.NewFuture(), b.k.NewFuture()
			injs = append(injs, injF)
			delivered[agg] = append(delivered[agg], delF)
			issue := func(node int) func() {
				return func() {
					b.issueBatch(node, sched.AggRanks()[agg]/b.rpn, size, c, release, mems, injF, delF)
				}
			}(nd)
			if bPack[j] > 0 {
				// One hop after the copy, as a future's callback ran.
				b.net.MemcpyTo(sim.Func(func() { b.k.After(0, issue) }), nd, bPack[j])
			} else {
				issue()
			}
		}
	}
	for a := 0; a < naggs; a++ {
		done := v.recvDone[c][a]
		b.k.Join(delivered[a]...).Then(done)
	}
	b.k.Join(injs...).OnDone(func() {
		if c+1 < len(v.syncs) {
			v.syncs[c+1].arrive()
		} else {
			v.final.arrive()
		}
	})
}

// issueBatch puts one batched transfer on the wire and forwards its
// completion futures. Under -netmodel flow with instrumentation, the
// batch carries per-member byte milestones so each member's completion
// instant comes from the fluid solver; otherwise member instants are
// interpolated linearly when the batch completes.
func (b *cohortRun) issueBatch(node, aggNode int, size int64, cycle int, release sim.Time, mems []memberSend, injF, delF *sim.Future) {
	t0 := b.k.Now()
	if b.flow && node != aggNode && len(mems) > 1 {
		offsets := make([]int64, len(mems))
		var cum int64
		for i, m := range mems {
			cum += m.bytes
			offsets[i] = cum
		}
		tr, ms := b.net.SendFlowMilestones(node, aggNode, size, offsets)
		for i, f := range ms {
			m := mems[i]
			f.OnDone(func() {
				b.obs.Phase(probe.CauseShuffle, m.rank, cycle, release, b.k.Now(), 0)
			})
		}
		tr.Injected.Then(injF)
		tr.Delivered.Then(delF)
		return
	}
	tr := b.net.SendFlow(nil, node, aggNode, size)
	if len(mems) > 0 {
		tr.Injected.OnDone(func() {
			end := b.k.Now()
			var cum int64
			for _, m := range mems {
				cum += m.bytes
				t := t0 + sim.Time(float64(end-t0)*float64(cum)/float64(size))
				b.obs.Phase(probe.CauseShuffle, m.rank, cycle, release, t, 0)
			}
		})
	}
	tr.Injected.Then(injF)
	tr.Delivered.Then(delF)
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
	v    *viewState
	a    int
	rank int
	node int
	sh   [2]struct { // in-flight shuffle per sub-buffer slot
		cycle  int
		initAt sim.Time
		open   bool
	}
	wr     [2]*sim.Future // in-flight write per sub-buffer slot
	copied sim.Future     // the staged-scatter copy's completion

	shuffleTime  sim.Time
	writeTime    sim.Time
	bytesWritten int64
}

func (ag *aggRun) NCycles() int                    { return ag.v.sched.NCycles() }
func (ag *aggRun) Fill() fcoll.Stage               { return (*aggShuffle)(ag) }
func (ag *aggRun) Drain() fcoll.Stage              { return (*aggWrite)(ag) }
func (ag *aggRun) WaitAny(futs ...*sim.Future) int { return ag.p.WaitAny(futs...) }

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
	ag.p.Wait(ag.v.syncs[c].fut)
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
	ag.p.Wait(ag.v.recvDone[c][ag.a])
	if u := ag.v.unpack[c][ag.a]; u > 0 {
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

func (s *aggShuffle) Future(slot int) *sim.Future {
	ag := (*aggRun)(s)
	return ag.v.recvDone[ag.sh[slot].cycle][ag.a]
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

func (w *aggWrite) Init(c, slot int) {
	ag := (*aggRun)(w)
	ag.wr[slot] = nil
	ext := ag.v.sched.CycleExtent(ag.a, c)
	if ext.Len == 0 {
		return
	}
	ag.bytesWritten += ext.Len
	fut := ag.b.file.AIOWrite(ag.node, ext.Off, ext.Len, nil)
	ag.wr[slot] = fut
	if ag.b.obs.On() {
		b, rank, t0 := ag.b, ag.rank, ag.p.Now()
		fut.OnDone(func() { b.obs.Phase(probe.CauseWrite, rank, c, t0, b.k.Now(), ext.Len) })
	}
}

func (w *aggWrite) Wait(slot int) {
	ag := (*aggRun)(w)
	f := ag.wr[slot]
	if f == nil {
		return
	}
	ag.wr[slot] = nil
	t0 := ag.p.Now()
	ag.p.Wait(f)
	ag.writeTime += ag.p.Now() - t0
}

func (w *aggWrite) Future(slot int) *sim.Future { return w.wr[slot] }
