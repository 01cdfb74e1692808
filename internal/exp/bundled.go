package exp

import (
	"fmt"

	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/mpi"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/simnet"
	"collio/internal/trace"
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
//   - Collective control ladders (setup allreduce/allgather(v), the
//     per-cycle alltoall, the final barrier) are charged in closed form
//     from the same mpi.Config constants the exact ladders use, at
//     rendezvous points that preserve their global-synchronisation
//     semantics.
//
// The result is O(aggregators + nodes) simulation state instead of
// O(ranks), at the price of modelled rather than simulated collective
// ladders — which is why bundled results are validated against the
// exact executor by makespan tolerance, not digest equality (DESIGN.md
// §14 quantifies the error model).

// rendezvous is a modelled global synchronisation point: need arrivals
// (every aggregator plus one for the bundled non-aggregator members),
// release at the latest arrival plus the closed-form collective cost.
type rendezvous struct {
	k    *sim.Kernel
	need int
	n    int
	last sim.Time
	cost sim.Time
	fut  *sim.Future
}

func (rv *rendezvous) arrive() {
	if now := rv.k.Now(); now > rv.last {
		rv.last = now
	}
	if rv.n++; rv.n == rv.need {
		rv.k.At(rv.last+rv.cost, rv.fut.Complete)
	}
}

// viewState is the per-collective execution state of one JobView.
type viewState struct {
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
}

// cohortRun is the bundled executor for one spec. The name is
// load-bearing for collvet: the lookahead analyzer rejects any
// ScheduleRemote reachable from a cohort receiver, because cohort
// replay wiring runs below the partition lookahead by construction.
type cohortRun struct {
	k     *sim.Kernel
	net   *simnet.Network
	file  *simfs.File
	pf    platform.Platform
	cfg   mpi.Config
	np    int
	rpn   int
	nodes int
	flow  bool
	algo  fcoll.Algorithm

	tr    *trace.Recorder
	pb    *probe.Probe
	met   *metrics.Metrics
	instr bool

	views  []*viewState
	starts []*sim.Future

	// Per-rank counter accumulation (instrumented runs only).
	shufBytes []int64
}

// hopAt is the modelled cost of one point-to-point message inside a
// collective ladder, for peers at the given rank distance: caller +
// handler software overheads, then the wire. Rank-to-node mapping is
// block, so peers closer than a node width are (for most ranks)
// node-local and pay the shared-memory latency and bandwidth instead of
// the NIC's.
func (b *cohortRun) hopAt(bytes int64, dist int) sim.Time {
	base := 2*b.cfg.CallOverhead + b.cfg.HandlerCost
	if dist < b.rpn {
		wire := float64(bytes) / b.pf.IntraBandwidth * 1e9
		return base + b.pf.IntraLatency + sim.Time(wire)
	}
	wire := float64(bytes+b.cfg.CtrlBytes) / b.pf.InterBandwidth * 1e9
	return base + b.pf.InterLatency + sim.Time(wire)
}

// ladder sums the rounds of a distance-doubling exchange (dissemination
// barrier, Bruck alltoall, binomial reduce/bcast): round k talks to a
// peer 2^k ranks away, and each round waits on the previous one, so
// latency stacks.
func (b *cohortRun) ladder(bytes int64) sim.Time {
	var t sim.Time
	for k := 1; k < b.np; k <<= 1 {
		t += b.hopAt(bytes, k)
	}
	return t
}

// barrierCost models the dissemination barrier: a ladder of one-byte
// exchanges.
func (b *cohortRun) barrierCost() sim.Time { return b.ladder(1) }

// a2aCost models the per-cycle AlltoallSync(8): Bruck's algorithm,
// a ladder moving half the 8-byte-per-peer vector each round.
func (b *cohortRun) a2aCost() sim.Time { return b.ladder(8 * int64(b.np) / 2) }

// ringCost models the pipelined ring allgatherv: P-1 steps clocked by
// the slowest (inter-node) edge, but self-clocked rather than globally
// synchronised, so the wire latency is paid once, not per step.
func (b *cohortRun) ringCost(avgBytes int64) sim.Time {
	step := 2*b.cfg.CallOverhead + b.cfg.HandlerCost +
		sim.Time(float64(avgBytes+b.cfg.CtrlBytes)/b.pf.InterBandwidth*1e9)
	return b.pf.InterLatency + sim.Time(b.np-1)*step
}

// setupCost models the plan-establishment collectives of exec.setup:
// the 2-value bounds allreduce (binomial reduce + broadcast: two
// ladders), the extent-count allgather (allreduce over a P-vector), and
// the ring allgatherv of the 16-byte-per-extent flattened views.
func (b *cohortRun) setupCost(totalExtents int64) sim.Time {
	allreduce := 2 * b.ladder(16)
	allgather := 2 * b.ladder(8*int64(b.np))
	avg := 16 * totalExtents / int64(b.np)
	return allreduce + allgather + b.ringCost(avg)
}

// bundleEligible is the static half of the bundled-path gate (the
// dynamic half is per-view cohort collapse). It mirrors Partitionable's
// shape: the bundled executor models collective ladders in closed form,
// which is only meaningful relative to a deterministic two-sided write
// path.
func bundleEligible(spec Spec) bool {
	pf := spec.Platform
	return !spec.Read && !spec.DataMode && !spec.Hierarchical &&
		spec.Primitive == fcoll.TwoSided &&
		!pf.ProgressThread &&
		pf.NetNoiseSigma == 0 && pf.StorageNoiseSigma == 0 &&
		pf.RunNoiseNet == 0 && pf.RunNoiseStorage == 0
}

// Collapsible reports whether gen's views at nprocs collapse into
// rank-symmetric cohorts — i.e. whether a -bundle run would actually
// take the bundled fast path rather than silently falling back to the
// exact executor. It is a static probe: it builds the views and the
// two-phase plans and runs cohort detection, but simulates nothing, so
// it costs milliseconds where the exact run it predicts can cost
// hours. Callers (e.g. evalsuite's E12 driver) use it to refuse
// exact-path sweeps at rank counts where they are impractical.
func Collapsible(gen workload.Generator, pf platform.Platform, nprocs int) bool {
	pf = pf.ScaledTo(nprocs)
	views, err := gen.Views(nprocs, false, workloadSeed)
	if err != nil {
		return false
	}
	opts := fcoll.Options{Primitive: fcoll.TwoSided, BufferSize: 32 << 20}
	for _, jv := range views {
		s, err := fcoll.BuildSchedule(jv, nprocs, pf.RanksPerNode, opts)
		if err != nil || !fcoll.DetectCohorts(s).Collapses() {
			return false
		}
	}
	return true
}

// executeBundled attempts the bundled cohort fast path. ok=false means
// the spec is not bundleable (asymmetric workload or ineligible
// configuration) and the caller must take the exact path; this is a
// silent fallback, mirroring the JRun contract. JRun itself is ignored
// here: the bundled executor is sequential (and far cheaper than any
// partitioned exact run).
func executeBundled(spec Spec) (Metrics, bool, error) {
	if !bundleEligible(spec) {
		return Metrics{}, false, nil
	}
	bufSize := spec.BufferSize
	if bufSize == 0 {
		bufSize = 32 << 20
	}
	pf := spec.Platform.ScaledTo(spec.NProcs)
	views, err := spec.Gen.Views(spec.NProcs, false, workloadSeed)
	if err != nil {
		return Metrics{}, false, err
	}
	opts := fcoll.Options{
		Algorithm:   spec.Algorithm,
		Primitive:   spec.Primitive,
		BufferSize:  bufSize,
		Aggregators: spec.Aggregators,
	}
	scheds := make([]*fcoll.Schedule, len(views))
	for i, jv := range views {
		s, err := fcoll.BuildSchedule(jv, spec.NProcs, pf.RanksPerNode, opts)
		if err != nil {
			return Metrics{}, false, err
		}
		if !fcoll.DetectCohorts(s).Collapses() {
			// Asymmetric workload: bundling would not pay and the
			// batch-level approximation is not certified. Exact path.
			return Metrics{}, false, nil
		}
		scheds[i] = s
	}
	cl, err := pf.InstantiateBundled(spec.NProcs, spec.Seed)
	if err != nil {
		return Metrics{}, false, err
	}
	b := &cohortRun{
		k:     cl.Kernel,
		net:   cl.Net,
		file:  cl.FS.Open(spec.Gen.Name()),
		pf:    pf,
		cfg:   mpi.DefaultConfig(spec.NProcs, pf.RanksPerNode),
		np:    spec.NProcs,
		rpn:   pf.RanksPerNode,
		nodes: (spec.NProcs + pf.RanksPerNode - 1) / pf.RanksPerNode,
		flow:  pf.NetModel == simnet.ModelFlow,
		algo:  spec.Algorithm,
		tr:    spec.Trace,
		pb:    spec.Probe,
		met:   spec.Metrics,
		instr: spec.Trace != nil || spec.Probe != nil || spec.Metrics != nil,
	}
	if b.pb != nil {
		cl.Net.SetProbe(b.pb)
		cl.FS.SetProbe(b.pb)
	}
	if b.met != nil {
		cl.Net.SetMetrics(b.met)
		cl.FS.SetMetrics(b.met)
		kg := b.met.Gauge(metrics.KernelDepth, metrics.ModeMax)
		cl.Kernel.ObserveDepth = func(at sim.Time, depth int) {
			kg.Observe(at, int64(depth))
		}
	}
	if b.instr {
		b.shufBytes = make([]int64, b.np)
	}

	// Build per-view state and chain the views: view v+1 starts at view
	// v's closing barrier.
	start := b.k.NewFuture()
	start.Complete()
	for i, s := range scheds {
		v := b.buildView(s, views[i])
		v.start = start
		b.views = append(b.views, v)
		b.starts = append(b.starts, start)
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
			for vi, v := range b.views {
				p.Wait(b.starts[vi])
				p.Sleep(v.setup)
				ag.v = v
				ag.rank = v.sched.AggRanks()[a]
				ag.node = ag.rank / b.rpn
				if err := fcoll.Drive(b.algo, ag); err != nil {
					driveErr = err
					return
				}
				tSync := p.Now()
				v.final.arrive()
				p.Wait(v.final.fut)
				b.tr.Record(ag.rank, trace.PhaseSync, -1, tSync, p.Now())
				b.probeSpan(probe.CauseSync, ag.rank, -1, tSync, p.Now())
				b.metricSpan("sync", tSync, p.Now())
			}
		})
	}
	b.k.Run()
	if driveErr != nil {
		return Metrics{}, false, driveErr
	}

	last := b.views[len(b.views)-1]
	if !last.final.fut.Done() {
		return Metrics{}, false, fmt.Errorf("exp: bundled execution stalled (deadlocked rendezvous)")
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
	if b.instr {
		b.emitRankTelemetry(views)
	}
	return m, true, nil
}

// buildView allocates the rendezvous chain and completion futures of
// one collective.
func (b *cohortRun) buildView(sched *fcoll.Schedule, jv *fcoll.JobView) *viewState {
	nc := sched.NCycles()
	naggs := len(sched.AggRanks())
	var extents int64
	for r := range jv.Ranks {
		extents += int64(len(jv.Ranks[r].Extents))
	}
	v := &viewState{sched: sched, setup: b.setupCost(extents)}
	a2a := b.a2aCost()
	v.syncs = make([]*rendezvous, nc)
	for c := range v.syncs {
		v.syncs[c] = &rendezvous{k: b.k, need: naggs + 1, cost: a2a, fut: b.k.NewFuture()}
	}
	v.final = &rendezvous{k: b.k, need: naggs + 1, cost: b.barrierCost(), fut: b.k.NewFuture()}
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
				j := -1
				for i, a := range bAgg {
					if a == agg {
						j = i
						break
					}
				}
				if j < 0 {
					j = len(bAgg)
					bAgg = append(bAgg, agg)
					bBytes = append(bBytes, 0)
					bPack = append(bPack, 0)
					if b.instr {
						bMembers = append(bMembers, nil)
					}
				}
				bBytes[j] += total
				if nseg > 1 {
					bPack[j] += total
				}
				if b.instr {
					bMembers[j] = append(bMembers[j], memberSend{r, total})
					b.shufBytes[r] += total
				}
			})
		}
		for j := range bAgg {
			agg, size := bAgg[j], bBytes[j]
			var mems []memberSend
			if b.instr {
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
				b.net.Memcpy(nd, bPack[j]).OnDone(issue)
			} else {
				issue()
			}
		}
	}
	for a := 0; a < naggs; a++ {
		done := v.recvDone[c][a]
		b.k.Join(delivered[a]...).OnDone(done.Complete)
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
				b.memberSpan(m.rank, cycle, release, b.k.Now())
			})
		}
		tr.Injected.OnDone(injF.Complete)
		tr.Delivered.OnDone(delF.Complete)
		b.net.Release(tr)
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
				b.memberSpan(m.rank, cycle, release, t)
			}
		})
	}
	tr.Injected.OnDone(injF.Complete)
	tr.Delivered.OnDone(delF.Complete)
	b.net.Release(tr)
}

// memberSpan records one replayed member shuffle span into every
// attached sink (the per-cohort sample expansion: dashboards and phase
// attribution see one span per rank, as in exact mode).
func (b *cohortRun) memberSpan(rank, cycle int, start, end sim.Time) {
	b.tr.Record(rank, trace.PhaseShuffle, cycle, start, end)
	b.probeSpan(probe.CauseShuffle, rank, cycle, start, end)
	b.metricSpan("shuffle", start, end)
}

func (b *cohortRun) probeSpan(cause probe.Cause, rank, cycle int, start, end sim.Time) {
	if b.pb == nil || end <= start {
		return
	}
	b.pb.Emit(probe.Event{
		At: start, Dur: end - start, Layer: probe.LayerFcoll,
		Kind: probe.KindPhase, Cause: cause, Rank: rank, Peer: -1, Cycle: cycle,
	})
}

func (b *cohortRun) metricSpan(name string, start, end sim.Time) {
	if !b.met.Enabled() || end <= start {
		return
	}
	b.met.Gauge(metrics.PhaseRank(name), metrics.ModeSum).AddSpan(start, end)
	b.met.Hist(metrics.PhaseHist(name)).Record(int64(end - start))
}

// emitRankTelemetry emits the per-rank end-of-collective events and
// counters that exact mode produces inside each rank's coroutine: one
// KindCollOp span per rank per view plus the per-rank byte counters.
// Emission happens after the run (ordering differs from exact mode;
// bundled telemetry is validated for self-consistency, not digest
// equality — DESIGN.md §14).
func (b *cohortRun) emitRankTelemetry(views []*fcoll.JobView) {
	var writeBytes []int64
	if b.pb != nil {
		writeBytes = make([]int64, b.np)
	}
	for vi, v := range b.views {
		vStart := b.starts[vi].DoneAt()
		vEnd := v.final.fut.DoneAt()
		naggs := len(v.sched.AggRanks())
		if b.pb != nil {
			for a := 0; a < naggs; a++ {
				rank := v.sched.AggRanks()[a]
				var wb int64
				for c := 0; c < v.sched.NCycles(); c++ {
					wb += v.sched.CycleExtent(a, c).Len
				}
				writeBytes[rank] += wb
			}
			for r := 0; r < b.np; r++ {
				b.pb.Emit(probe.Event{
					At: vStart, Dur: vEnd - vStart, Layer: probe.LayerFcoll,
					Kind: probe.KindCollOp, Cause: probe.CauseCollWrite,
					Rank: r, Peer: -1, Cycle: v.sched.NCycles(), Size: writeBytes[r],
				})
			}
			b.pb.Counters().Add(probe.CtrCollCycles, int64(v.sched.NCycles()))
		}
	}
	if b.pb != nil {
		ctr := b.pb.Counters()
		for r := 0; r < b.np; r++ {
			ctr.AddRank(r, probe.CtrCollShufBytes, b.shufBytes[r])
			ctr.AddRank(r, probe.CtrCollWriteBytes, writeBytes[r])
			var user int64
			for _, jv := range views {
				for _, e := range jv.Ranks[r].Extents {
					user += e.Len
				}
			}
			ctr.AddRank(r, probe.CtrCollUserBytes, user)
		}
	}
}

// aggRun is one aggregator's fcoll.Cycles for one view at a time: the
// bundled substitutes are a rendezvous for the cycle alltoall, the
// precomputed recvDone future for shuffle completion, and the real
// simulated file for writes. fcoll.Drive runs the selected algorithm on
// it, the same drivers an exact rank runs. Writes need no slot: the
// bundled executor moves no bytes through the sub-buffers.
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
	}

	shuffleTime  sim.Time
	writeTime    sim.Time
	bytesWritten int64
}

func (ag *aggRun) NCycles() int { return ag.v.sched.NCycles() }

// ShuffleInit is the bundled cycle opening: arrive at the cycle's
// alltoall rendezvous and block until it releases (the de-facto global
// synchronisation the exact AlltoallSync provides).
func (ag *aggRun) ShuffleInit(c, slot int) {
	t0 := ag.p.Now()
	if ag.b.pb != nil {
		ag.b.pb.Emit(probe.Event{
			At: t0, Layer: probe.LayerFcoll, Kind: probe.KindCycle,
			Rank: ag.rank, Peer: -1, Cycle: c,
		})
	}
	ag.v.syncs[c].arrive()
	ag.p.Wait(ag.v.syncs[c].fut)
	ag.shuffleTime += ag.p.Now() - t0
	ag.sh[slot].cycle, ag.sh[slot].initAt = c, t0
}

// ShuffleWait blocks until the slot's inbound traffic is delivered, then
// pays the staged-scatter copy.
func (ag *aggRun) ShuffleWait(slot int) {
	c, initAt := ag.sh[slot].cycle, ag.sh[slot].initAt
	t0 := ag.p.Now()
	ag.p.Wait(ag.v.recvDone[c][ag.a])
	if u := ag.v.unpack[c][ag.a]; u > 0 {
		ag.p.Wait(ag.b.net.Memcpy(ag.node, u))
	}
	now := ag.p.Now()
	ag.shuffleTime += now - t0
	ag.b.tr.Record(ag.rank, trace.PhaseShuffle, c, initAt, now)
	ag.b.probeSpan(probe.CauseShuffle, ag.rank, c, initAt, now)
	ag.b.metricSpan("shuffle", initAt, now)
}

func (ag *aggRun) ShuffleFuture(slot int) *sim.Future {
	return ag.v.recvDone[ag.sh[slot].cycle][ag.a]
}

func (ag *aggRun) WaitAny(futs ...*sim.Future) int { return ag.p.WaitAny(futs...) }

// ShuffleReap is ShuffleWait: the bundled dataflow run records the
// shuffle span, which the exact executor's does not (DESIGN.md §4).
func (ag *aggRun) ShuffleReap(slot int) { ag.ShuffleWait(slot) }

func (ag *aggRun) WriteSync(c, _ int) {
	ext := ag.v.sched.CycleExtent(ag.a, c)
	if ext.Len == 0 {
		return
	}
	t0 := ag.p.Now()
	if m := ag.b.met; m.Enabled() {
		m.Gauge(metrics.BufBytes, metrics.ModeDelta).Add(t0, ext.Len)
	}
	ag.b.file.Write(ag.p, ag.node, ext.Off, ext.Len, nil)
	now := ag.p.Now()
	ag.writeTime += now - t0
	ag.bytesWritten += ext.Len
	if m := ag.b.met; m.Enabled() {
		m.Gauge(metrics.BufBytes, metrics.ModeDelta).Add(now, -ext.Len)
	}
	ag.b.tr.Record(ag.rank, trace.PhaseWrite, c, t0, now)
	ag.b.probeSpan(probe.CauseWrite, ag.rank, c, t0, now)
	ag.b.metricSpan("write", t0, now)
}

func (ag *aggRun) WriteInit(c, _ int) *sim.Future {
	ext := ag.v.sched.CycleExtent(ag.a, c)
	if ext.Len == 0 {
		return nil
	}
	ag.bytesWritten += ext.Len
	fut := ag.b.file.AIOWrite(ag.node, ext.Off, ext.Len, nil)
	if ag.b.instr {
		t0 := ag.p.Now()
		b, rank := ag.b, ag.rank
		if b.met.Enabled() {
			b.met.Gauge(metrics.BufBytes, metrics.ModeDelta).Add(t0, ext.Len)
		}
		fut.OnDone(func() {
			now := b.k.Now()
			b.tr.Record(rank, trace.PhaseWrite, c, t0, now)
			b.probeSpan(probe.CauseWrite, rank, c, t0, now)
			if b.met.Enabled() {
				b.met.Gauge(metrics.BufBytes, metrics.ModeDelta).Add(now, -ext.Len)
			}
			b.metricSpan("write", t0, now)
		})
	}
	return fut
}

func (ag *aggRun) WriteWait(f *sim.Future) {
	if f == nil {
		return
	}
	t0 := ag.p.Now()
	ag.p.Wait(f)
	ag.writeTime += ag.p.Now() - t0
}
