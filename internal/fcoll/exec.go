package fcoll

import (
	"fmt"

	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
)

// exec is the per-rank execution state of one collective write and the
// exact executor's Cycles. The scratch fields at the bottom are
// grow-only and recycled across cycles: after the first cycle or two
// the steady-state hot path allocates nothing per cycle.
type exec struct {
	r        *mpi.Rank
	jv       *JobView
	p        *plan
	file     Writer
	opts     Options
	obs      Observer // this rank's resolved sinks
	dataMode bool
	aggIdx   int // index into plan.aggRanks, -1 for non-aggregators
	slots    int
	bufs     [2][]byte
	wins     [2]*mpi.Window
	res      Result

	shState   [2]shuffle // per-slot shuffle state, reused across cycles
	stageBuf  [2][]byte  // per-slot staged-receive arenas (data mode)
	stageUsed [2]int64
	packBuf   []byte // pack scratch; reusable because Isend snapshots data
	peersBuf  []int  // cycleOrigins/cycleTargets scratch

	// Hierarchical-family scratch (hier.go).
	intraReqs []*mpi.Request // leader: member payload receives in flight
	intraBufs [][]byte       // leader: member payload buffers (data mode)
	combBuf   []byte         // leader: combined-message assembly scratch
}

// Run executes one collective write on rank r. Every rank of the world
// must call Run with the same JobView, Writer and Options (collective
// semantics). It returns this rank's accounting.
func Run(r *mpi.Rank, jv *JobView, file Writer, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if len(jv.Ranks) != r.Size() {
		return Result{}, fmt.Errorf("fcoll: job view has %d ranks, world has %d", len(jv.Ranks), r.Size())
	}
	start := r.Now()
	r.EnterMPI() // the whole collective runs inside the MPI library ...
	defer r.ExitMPI()

	ex := &exec{r: r, jv: jv, file: file, opts: opts, obs: opts.observer(r.Node()), dataMode: jv.DataMode()}
	ex.setup()
	if err := Drive(opts.Algorithm, ex); err != nil {
		return Result{}, err
	}
	// The collective completes on all ranks together (write_all is
	// collective; vulcan's final synchronisation).
	tSync := r.Now()
	r.Barrier()
	ex.obs.Phase(probe.CauseSync, r.ID(), -1, tSync, r.Now(), 0)
	ex.res.Elapsed = r.Now() - start
	ex.res.Cycles = ex.p.ncycles
	ex.res.Aggregator = ex.aggIdx >= 0
	if p := ex.obs.Probe; p != nil {
		p.Emit(probe.Event{
			At: start, Dur: ex.res.Elapsed, Layer: probe.LayerFcoll,
			Kind: probe.KindCollOp, Cause: probe.CauseCollWrite,
			Rank: r.ID(), Peer: -1, Cycle: ex.p.ncycles, Size: ex.res.BytesWritten,
		})
		ctr := p.Counters()
		ctr.AddRank(r.ID(), probe.CtrCollShufBytes, ex.res.BytesSent)
		ctr.AddRank(r.ID(), probe.CtrCollWriteBytes, ex.res.BytesWritten)
		var user int64
		for _, e := range jv.Ranks[r.ID()].Extents {
			user += e.Len
		}
		ctr.AddRank(r.ID(), probe.CtrCollUserBytes, user)
		if r.ID() == 0 {
			ctr.Add(probe.CtrCollCycles, int64(ex.p.ncycles))
		}
	}
	return ex.res, nil
}

// setup charges the plan-establishment collectives (offset reduction and
// flattened-view metadata exchange) and resolves the shared plan.
func (ex *exec) setup() {
	r := ex.r
	// Bounds agreement: min start / max end, one small allreduce.
	myStart, myEnd := int64(1)<<62, int64(0)
	for _, e := range ex.jv.Ranks[r.ID()].Extents {
		if e.Off < myStart {
			myStart = e.Off
		}
		if e.End() > myEnd {
			myEnd = e.End()
		}
	}
	r.AllreduceI64([]int64{myStart, -myEnd}, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
	// Flattened-view metadata exchange: 16 bytes per extent, ring
	// allgatherv (vulcan exchanges the per-process offset/length lists
	// so every rank can compute identical send/receive maps).
	counts := r.AllgatherI64(int64(len(ex.jv.Ranks[r.ID()].Extents)))
	sizes := make([]int64, len(counts))
	for i, c := range counts {
		sizes[i] = 16 * c
	}
	r.Allgatherv(mpi.Symbolic(sizes[r.ID()]), sizes)

	window := ex.opts.BufferSize
	ex.slots = 1
	if ex.opts.Algorithm != NoOverlap {
		// Two sub-buffers of half the collective buffer (§III-A).
		window /= 2
		ex.slots = 2
	}
	// The hierarchical routing threshold is the eager limit: below it a
	// message costs a matching-queue entry and handler work per op at
	// the aggregator (what pre-combining amortises); at or above it the
	// rendezvous path is bandwidth-bound and forwarding through the
	// leader would only serialise it.
	var hierThr int64
	if ex.opts.Hierarchical {
		hierThr = r.World().Config().EagerLimit
		if hierThr <= 0 {
			// Always-rendezvous config: nothing routes, but node-aware
			// aggregator selection and the leaders-only sync still apply.
			hierThr = 1
		}
	}
	ex.p = buildPlan(ex.jv, r.Size(), r.World().Config().RanksPerNode, window, ex.opts.Aggregators, ex.opts.Layout, hierThr)
	ex.aggIdx = ex.p.aggIndexOf(r.ID())

	oneSided := ex.opts.Primitive != TwoSided
	for s := 0; s < ex.slots; s++ {
		if oneSided {
			size := int64(0)
			if ex.aggIdx >= 0 {
				size = window
			}
			ex.wins[s] = r.WinAllocate(size, ex.dataMode)
			if ex.aggIdx >= 0 {
				ex.bufs[s] = ex.wins[s].Data(r.ID())
			}
		} else if ex.aggIdx >= 0 && ex.dataMode {
			ex.bufs[s] = make([]byte, window)
		}
	}
}

// chargeCopy waits out a memory copy of n bytes on this rank's node
// (pack/unpack cost), inside MPI.
func (ex *exec) chargeCopy(n int64) {
	if n <= 0 {
		return
	}
	fut := ex.r.World().Network().Memcpy(ex.r.Node(), n)
	ex.r.WaitFutures(fut)
}

// stageAlloc carves n bytes out of the slot's grow-only staging arena.
// The arena resets at ShuffleInit: every algorithm completes (waits and
// unpacks) a slot's shuffle before reusing the slot, so outstanding
// staged buffers never overlap a reset. A mid-cycle grow abandons the
// old backing array, which earlier buffers of the same cycle keep
// referencing — valid, just unrecycled until the arena converges.
func (ex *exec) stageAlloc(slot int, n int64) []byte {
	u := ex.stageUsed[slot]
	if int64(len(ex.stageBuf[slot]))-u < n {
		grown := int64(len(ex.stageBuf[slot]))*2 + n
		ex.stageBuf[slot] = make([]byte, grown)
		u = 0
	}
	ex.stageUsed[slot] = u + n
	return ex.stageBuf[slot][u : u+n : u+n]
}

// shuffle is an in-flight shuffle phase on one sub-buffer.
type shuffle struct {
	cycle, slot int
	initAt      sim.Time
	reqs        []*mpi.Request // two-sided: sends + receives
	staged      []stagedRecv   // data mode: receives needing scatter into the buffer
	stagedComb  []stagedComb   // data mode: combined receives needing scatter (hier.go)
	unpackBytes int64
	futs        []*sim.Future // ShuffleFuture scratch
}

type stagedRecv struct {
	buf []byte
	op  recvOp
}

func (ex *exec) NCycles() int { return ex.p.ncycles }

// ShuffleInit starts the shuffle for cycle c into sub-buffer slot. Its
// state is the slot's recycled shuffle struct: it stays valid until the
// next ShuffleInit on the same slot, which every algorithm orders after
// this shuffle's completion.
func (ex *exec) ShuffleInit(c, slot int) {
	t0 := ex.r.Now()
	sh := &ex.shState[slot]
	sh.cycle, sh.slot, sh.initAt = c, slot, t0
	sh.reqs = sh.reqs[:0]
	sh.staged = sh.staged[:0]
	sh.stagedComb = sh.stagedComb[:0]
	sh.unpackBytes = 0
	ex.stageUsed[slot] = 0
	ex.obs.Cycle(ex.r.ID(), c, slot, t0)
	// Per-cycle transfer-size exchange: ROMIO/vulcan run an
	// MPI_Alltoall of send sizes at the start of every cycle. Besides
	// its cost, it makes each cycle a de-facto global synchronisation
	// point — the reason the non-overlapping baseline's shuffle and
	// file-access phases strictly alternate machine-wide. The
	// hierarchical family restricts the exchange to node leaders —
	// log2(nodes) rounds instead of log2(ranks), every hop inter-node
	// either way — and throttles members with per-cycle credits instead
	// (memberInit).
	if h := ex.p.hier; h != nil {
		if h.isLeader(ex.r.ID()) {
			ex.r.AlltoallSyncAmong(h.leaders, 8)
		}
	} else {
		ex.r.AlltoallSync(8)
	}
	switch ex.opts.Primitive {
	case TwoSided:
		if ex.p.hier != nil {
			ex.twoSidedInitHier(sh)
		} else {
			ex.twoSidedInit(sh)
		}
	case OneSidedFence:
		tf := ex.r.Now()
		ex.r.WinFence(ex.wins[slot]) // open the access epoch
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), c, tf, ex.r.Now(), 0)
		ex.putAll(sh)
	case OneSidedLock:
		// Barrier: no origin may write into the window before every
		// aggregator has drained it (paper §III-B.2b).
		tb := ex.r.Now()
		ex.r.Barrier()
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), c, tb, ex.r.Now(), 0)
		ex.lockPutUnlockAll(sh)
	case OneSidedPSCW:
		// The exposure epoch is opened pairwise: aggregators post to
		// this cycle's origins; origins start on their targets (which
		// implicitly waits until each aggregator has drained the
		// buffer), put, and complete.
		if ex.aggIdx >= 0 {
			ex.r.WinPost(ex.wins[slot], ex.cycleOrigins(c))
		}
		if tg := ex.cycleTargets(c); len(tg) > 0 {
			ex.r.WinStart(ex.wins[slot], tg)
			ex.putAll(sh)
			ex.r.WinComplete(ex.wins[slot])
		}
	}
	ex.res.ShuffleTime += ex.r.Now() - t0
}

// cycleOrigins lists the world ranks sending into this aggregator's
// window in cycle c. The result aliases a scratch buffer that the next
// cycleOrigins/cycleTargets call reuses (WinPost/WinStart copy their
// group arguments).
func (ex *exec) cycleOrigins(c int) []int {
	ops := ex.p.recvsAt(ex.aggIdx, c)
	out := ex.peersBuf[:0]
	for i := range ops {
		out = append(out, int(ops[i].src))
	}
	ex.peersBuf = out
	return out
}

// cycleTargets lists the aggregator world ranks this rank sends to in
// cycle c (same scratch-aliasing contract as cycleOrigins).
func (ex *exec) cycleTargets(c int) []int {
	ops := ex.p.sendsAt(ex.r.ID(), c)
	out := ex.peersBuf[:0]
	for i := range ops {
		out = append(out, ex.p.aggRanks[ops[i].agg])
	}
	ex.peersBuf = out
	return out
}

// ShuffleWait completes the slot's shuffle phase.
func (ex *exec) ShuffleWait(slot int) {
	sh := &ex.shState[slot]
	t0 := ex.r.Now()
	switch ex.opts.Primitive {
	case TwoSided:
		ex.r.Wait(sh.reqs...)
		ex.unpack(sh)
	case OneSidedFence:
		ex.r.WinFence(ex.wins[sh.slot]) // close epoch: all puts complete
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), sh.cycle, t0, ex.r.Now(), 0)
	case OneSidedLock:
		// Unlocks already forced remote completion; the barrier tells
		// aggregators every origin is done.
		ex.r.Barrier()
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), sh.cycle, t0, ex.r.Now(), 0)
	case OneSidedPSCW:
		// Only exposure owners wait, and only for their own origins.
		if ex.aggIdx >= 0 {
			ex.r.WinWait(ex.wins[sh.slot])
		}
	}
	ex.res.ShuffleTime += ex.r.Now() - t0
	ex.obs.Phase(probe.CauseShuffle, ex.r.ID(), sh.cycle, sh.initAt, ex.r.Now(), 0)
}

// ShuffleFuture returns a completion future covering all of the slot's
// shuffle requests. Only the two-sided primitive completes passively;
// the one-sided ones return nil.
func (ex *exec) ShuffleFuture(slot int) *sim.Future {
	if ex.opts.Primitive != TwoSided {
		return nil
	}
	sh := &ex.shState[slot]
	sh.futs = sh.futs[:0]
	for _, q := range sh.reqs {
		sh.futs = append(sh.futs, q.Future())
	}
	return ex.r.Kernel().Join(sh.futs...)
}

func (ex *exec) WaitAny(futs ...*sim.Future) int { return ex.r.WaitAnyFuture(futs...) }

// ShuffleReap finishes a two-sided shuffle whose future has completed:
// it reaps the requests, scatters staged data, accounts the wait and
// records the shuffle span, as ShuffleWait does.
func (ex *exec) ShuffleReap(slot int) {
	sh := &ex.shState[slot]
	t0 := ex.r.Now()
	ex.r.Wait(sh.reqs...) // already complete; reap
	ex.unpack(sh)
	ex.res.ShuffleTime += ex.r.Now() - t0
	ex.obs.Phase(probe.CauseShuffle, ex.r.ID(), sh.cycle, sh.initAt, ex.r.Now(), 0)
}

// twoSidedInit posts the aggregator receives (first, so eager traffic
// matches pre-posted buffers where possible) and then packs and sends
// this rank's contributions.
//
// Symbolic fast path: without real bytes there is nothing to stage or
// scatter, so fragmented receives only accumulate the unpack charge —
// no staged bookkeeping, no buffers. The virtual-time cost is identical
// in both modes (TestDataSymbolicEquivalence).
func (ex *exec) twoSidedInit(sh *shuffle) {
	r := ex.r
	tag := ex.opts.TagBase + sh.cycle
	if ex.aggIdx >= 0 {
		recvs := ex.p.recvsAt(ex.aggIdx, sh.cycle)
		for i := range recvs {
			ro := &recvs[i]
			var buf []byte
			if ro.nseg == 1 {
				// Single contiguous target range: receive in place.
				if ex.dataMode {
					s := ex.p.rsegsOf(ro)[0]
					buf = ex.bufs[sh.slot][s.off : s.off+s.len]
				}
			} else {
				if ex.dataMode {
					buf = ex.stageAlloc(sh.slot, ro.total)
					sh.staged = append(sh.staged, stagedRecv{buf: buf, op: *ro})
				}
				sh.unpackBytes += ro.total
			}
			sh.reqs = append(sh.reqs, r.Irecv(int(ro.src), tag, ro.total, buf))
		}
	}
	sends := ex.p.sendsAt(r.ID(), sh.cycle)
	for i := range sends {
		so := &sends[i]
		var pl mpi.Payload
		if ex.dataMode {
			pl = mpi.Bytes(ex.pack(so))
		} else {
			pl = mpi.Symbolic(so.total)
			if so.nseg > 1 {
				ex.chargeCopy(so.total) // pack cost in symbolic mode too
			}
		}
		sh.reqs = append(sh.reqs, r.Isend(ex.p.aggRanks[so.agg], tag, pl))
		ex.res.BytesSent += so.total
	}
}

// pack gathers a sendOp's segments from the local data buffer into one
// contiguous message, charging the copy when the data is fragmented.
// The fragmented result aliases ex.packBuf, reusable as soon as Isend
// returns (Isend snapshots data payloads).
func (ex *exec) pack(so *sendOp) []byte {
	data := ex.jv.Ranks[ex.r.ID()].Data
	segs := ex.p.segsOf(so)
	if len(segs) == 1 {
		s := segs[0]
		return data[s.off : s.off+s.len] // contiguous: zero-copy send
	}
	out := ex.packBuf[:0]
	for _, s := range segs {
		out = append(out, data[s.off:s.off+s.len]...)
	}
	ex.packBuf = out
	ex.chargeCopy(so.total)
	return out
}

// unpack scatters staged receives into the sub-buffer, charging the
// copies. Receives with a single target range landed in place.
//
// The staged-receive layout: the packed message holds the source's
// segments in window order, matching the op's segments.
func (ex *exec) unpack(sh *shuffle) {
	if sh.unpackBytes == 0 {
		return
	}
	for i := range sh.staged {
		st := &sh.staged[i]
		var src int64
		for _, s := range ex.p.rsegsOf(&st.op) {
			copy(ex.bufs[sh.slot][s.off:s.off+s.len], st.buf[src:src+s.len])
			src += s.len
		}
	}
	for i := range sh.stagedComb {
		st := &sh.stagedComb[i]
		co := &ex.p.hier.combOps[st.op]
		var src int64
		for _, s := range ex.p.hier.segsOf(co) {
			copy(ex.bufs[sh.slot][s.off:s.off+s.len], st.buf[src:src+s.len])
			src += s.len
		}
	}
	ex.chargeCopy(sh.unpackBytes)
}

// putAll issues one Put per contiguous window range (one-sided shuffles
// cannot pack, since nothing unpacks at the passive target).
func (ex *exec) putAll(sh *shuffle) {
	r := ex.r
	data := ex.jv.Ranks[r.ID()].Data
	sends := ex.p.sendsAt(r.ID(), sh.cycle)
	for i := range sends {
		so := &sends[i]
		tgt := ex.p.aggRanks[so.agg]
		segs, wsegs := ex.p.segsOf(so), ex.p.wsegsOf(so)
		for j, ws := range wsegs {
			var pl mpi.Payload
			if ex.dataMode {
				s := segs[j]
				pl = mpi.Bytes(data[s.off : s.off+s.len])
			} else {
				pl = mpi.Symbolic(ws.len)
			}
			r.Put(ex.wins[sh.slot], tgt, ws.off, pl)
		}
		ex.res.BytesSent += so.total
	}
}

// lockPutUnlockAll wraps the puts to each aggregator in a shared
// lock/unlock epoch (passive target).
func (ex *exec) lockPutUnlockAll(sh *shuffle) {
	r := ex.r
	data := ex.jv.Ranks[r.ID()].Data
	sends := ex.p.sendsAt(r.ID(), sh.cycle)
	for i := range sends {
		so := &sends[i]
		tgt := ex.p.aggRanks[so.agg]
		r.WinLock(ex.wins[sh.slot], mpi.LockShared, tgt)
		segs, wsegs := ex.p.segsOf(so), ex.p.wsegsOf(so)
		for j, ws := range wsegs {
			var pl mpi.Payload
			if ex.dataMode {
				s := segs[j]
				pl = mpi.Bytes(data[s.off : s.off+s.len])
			} else {
				pl = mpi.Symbolic(ws.len)
			}
			r.Put(ex.wins[sh.slot], tgt, ws.off, pl)
		}
		r.WinUnlock(ex.wins[sh.slot], tgt)
		ex.res.BytesSent += so.total
	}
}

// WriteSync flushes cycle c's window from slot synchronously (blocking
// POSIX write: the rank leaves the MPI library for the duration).
func (ex *exec) WriteSync(c, slot int) {
	if ex.aggIdx < 0 {
		return
	}
	ext := ex.p.cycleExtent(ex.aggIdx, c)
	if ext.Len == 0 {
		return
	}
	t0 := ex.r.Now()
	var data []byte
	if ex.dataMode {
		data = ex.bufs[slot][:ext.Len]
	}
	ex.file.WriteSync(ex.r, ext.Off, ext.Len, data)
	ex.res.WriteTime += ex.r.Now() - t0
	ex.res.BytesWritten += ext.Len
	// The window's bytes sit in the sub-buffer from write submission
	// until the data is persisted.
	ex.obs.Phase(probe.CauseWrite, ex.r.ID(), c, t0, ex.r.Now(), ext.Len)
}

// WriteInit starts an asynchronous flush of cycle c's window from slot
// and returns its completion future (nil when this rank writes nothing
// this cycle).
func (ex *exec) WriteInit(c, slot int) *sim.Future {
	if ex.aggIdx < 0 {
		return nil
	}
	ext := ex.p.cycleExtent(ex.aggIdx, c)
	if ext.Len == 0 {
		return nil
	}
	var data []byte
	if ex.dataMode {
		data = ex.bufs[slot][:ext.Len]
	}
	ex.res.BytesWritten += ext.Len
	fut := ex.file.WriteAsync(ex.r, ext.Off, ext.Len, data)
	if ex.obs.On() {
		obs, rank, k, t0 := ex.obs, ex.r.ID(), ex.r.Kernel(), ex.r.Now()
		fut.OnDone(func() { obs.Phase(probe.CauseWrite, rank, c, t0, k.Now(), ext.Len) })
	}
	return fut
}

// WriteWait completes an asynchronous write. The rank stays inside MPI
// while waiting (MPI_File_iwrite + MPI_Wait), so communication keeps
// progressing — the asymmetry at the heart of the paper's results.
func (ex *exec) WriteWait(f *sim.Future) {
	if f == nil {
		return
	}
	t0 := ex.r.Now()
	ex.r.WaitFutures(f)
	ex.res.WriteTime += ex.r.Now() - t0
}
