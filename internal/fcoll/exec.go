package fcoll

import (
	"fmt"

	"collio/internal/datatype"
	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
)

// exec is the per-rank execution state of one collective write or read
// and the exact executor's Cycles: its communication stage (the write's
// shuffle, the read's scatter) and its file I/O stage (fileStage) keep
// their in-flight state per sub-buffer slot. The scratch fields at the
// bottom are grow-only and recycled across cycles: after the first cycle
// or two the steady-state hot path allocates nothing per cycle.
type exec struct {
	r        *mpi.Rank
	jv       *JobView
	p        *plan
	dir      Direction
	writer   Writer // Write: the file the drain flushes to
	reader   Reader // Read: the file the fill reads from
	opts     Options
	obs      Observer // this rank's resolved sinks
	dataMode bool
	aggIdx   int // index into plan.aggRanks, -1 for non-aggregators
	slots    int
	bufs     [2][]byte
	wins     [2]*mpi.Window
	res      Result

	shState   [2]shuffle         // per-slot shuffle or scatter state, reused across cycles
	ioFut     [2]*sim.Future     // per-slot asynchronous file I/O in flight
	wire      *[2]slotCompletion // per-slot I/O spans, allocated on first use
	copied    sim.Future         // chargeCopy's completion, reused per copy
	stageBuf  [2][]byte          // per-slot staged-receive arenas (data mode)
	stageUsed [2]int64
	packBuf   []byte // payload scratch for every packed send: Isend copies data at post
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
	return run(&exec{r: r, jv: jv, dir: Write, writer: file, opts: opts})
}

// RunRead executes a two-phase collective read: per cycle each
// aggregator reads its file window and scatters the pieces back to
// their owners. It is the collective write's pipeline with the stages
// reversed — the file read fills a sub-buffer and the scatter drains it
// — and runs on the same drivers (Drive), so each overlap algorithm's
// non-blocking role lands on the other stage: CommOverlap scatters
// asynchronously, WriteOverlap reads ahead (the read-ahead of view-based
// collective I/O the paper's related work discusses). Only the
// two-sided primitive and flat aggregation are implemented for the
// scatter. Result.BytesWritten and WriteTime account the file reads.
//
// In data mode (jv.Ranks[i].Data non-nil) each rank's buffer is filled
// with its view's bytes.
func RunRead(r *mpi.Rank, jv *JobView, file Reader, opts Options) (Result, error) {
	return run(&exec{r: r, jv: jv, dir: Read, reader: file, opts: opts})
}

// run executes one collective in ex's direction on rank ex.r.
func run(ex *exec) (Result, error) {
	r, jv, opts := ex.r, ex.jv, ex.opts
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if ex.dir == Read {
		if opts.Primitive != TwoSided {
			return Result{}, fmt.Errorf("fcoll: collective read supports only the two-sided primitive, got %v", opts.Primitive)
		}
		if opts.Hierarchical {
			return Result{}, fmt.Errorf("fcoll: collective read does not support hierarchical aggregation")
		}
	}
	if len(jv.Ranks) != r.Size() {
		return Result{}, fmt.Errorf("fcoll: job view has %d ranks, world has %d", len(jv.Ranks), r.Size())
	}
	start := r.Now()
	r.EnterMPI() // the whole collective runs inside the MPI library ...
	defer r.ExitMPI()

	ex.obs = opts.Observer
	// A reading rank moves real bytes as soon as it has a destination.
	ex.dataMode = jv.DataMode() || (ex.dir == Read && jv.Ranks[r.ID()].Data != nil)
	ex.setup()
	if err := Drive(opts.Algorithm, ex.dir, ex); err != nil {
		return Result{}, err
	}
	// The collective completes on all ranks together (write_all is
	// collective; vulcan's final synchronisation).
	tSync := r.Now()
	r.Collective(jv.Control(ex.dir).Final)
	ex.obs.Phase(probe.CauseSync, r.ID(), -1, tSync, r.Now(), 0)
	ex.res.Elapsed = r.Now() - start
	ex.res.Cycles = ex.p.ncycles
	ex.res.Aggregator = ex.aggIdx >= 0
	ex.obs.CollOp(jv, ex.dir, r.ID(), CollStats{
		Start: start, End: r.Now(), Cycles: ex.p.ncycles,
		Shuffled: ex.res.BytesSent, Written: ex.res.BytesWritten, Size: ex.res.BytesWritten,
	})
	return ex.res, nil
}

// setup charges the plan-establishment collectives (JobView.Control)
// and resolves the shared plan.
func (ex *exec) setup() {
	r := ex.r
	for _, c := range ex.jv.Control(ex.dir).Setup {
		r.Collective(c)
	}
	window, slots := ex.opts.subBuffers()
	ex.slots = slots
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
	ex.r.Kernel().InitFuture(&ex.copied)
	ex.r.World().Network().MemcpyTo(&ex.copied, ex.r.Node(), n)
	ex.r.WaitFutures(&ex.copied)
}

// stageAlloc carves n bytes out of the slot's grow-only staging arena.
// The arena resets when the slot's communication opens (openSlot): every
// algorithm completes (waits and unpacks) a slot's shuffle or scatter
// before reusing the slot, so outstanding staged buffers never overlap a
// reset. A mid-cycle grow abandons the old backing array, which earlier
// buffers of the same cycle keep referencing — valid, just unrecycled
// until the arena converges.
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

// shuffle is the in-flight communication of one sub-buffer slot: a
// write's shuffle into it or a read's scatter out of it.
type shuffle struct {
	cycle, slot int
	open        bool
	initAt      sim.Time
	reqs        []*mpi.Request // two-sided: sends + receives
	staged      []stagedRecv   // data mode: receives needing unpacking
	unpackBytes int64
}

// stagedRecv is a fragmented receive: the packed message holds the
// pieces of segs in order.
type stagedRecv struct {
	buf  []byte
	segs []seg
}

func (ex *exec) NCycles() int { return ex.p.ncycles }

// Fill is the shuffle for a write and the file read for a read.
func (ex *exec) Fill() Stage {
	if ex.dir == Read {
		return (*fileStage)(ex)
	}
	return (*shuffleStage)(ex)
}

// Drain is the file write for a write and the scatter for a read.
func (ex *exec) Drain() Stage {
	if ex.dir == Read {
		return (*scatterStage)(ex)
	}
	return (*fileStage)(ex)
}

// openSlot opens cycle c's communication on slot and returns the slot's
// recycled state: it stays valid until the next openSlot on the same
// slot, which every algorithm orders after this one's completion.
func (ex *exec) openSlot(c, slot int) *shuffle {
	t0 := ex.r.Now()
	sh := &ex.shState[slot]
	sh.cycle, sh.slot, sh.initAt, sh.open = c, slot, t0, true
	sh.reqs = sh.reqs[:0]
	sh.staged = sh.staged[:0]
	sh.unpackBytes = 0
	ex.stageUsed[slot] = 0
	ex.obs.Cycle(ex.r.ID(), c, slot, t0)
	// The per-cycle transfer-size exchange (Control.Cycle). The
	// hierarchical family restricts it to node leaders — log2(nodes)
	// rounds instead of log2(ranks), every hop inter-node either way —
	// and throttles members with per-cycle credits instead (memberInit).
	sync := ex.jv.Control(ex.dir).Cycle
	if h := ex.p.hier; h != nil {
		sync.Group = h.leaders
		if !h.isLeader(ex.r.ID()) {
			return sh
		}
	}
	ex.r.Collective(sync)
	return sh
}

// closeSlot accounts a completed communication that started waiting at
// t0 and records its span.
func (ex *exec) closeSlot(sh *shuffle, t0 sim.Time) {
	ex.res.ShuffleTime += ex.r.Now() - t0
	ex.obs.Phase(probe.CauseShuffle, ex.r.ID(), sh.cycle, sh.initAt, ex.r.Now(), 0)
	sh.open = false
}

// slotCompletion is one sub-buffer slot's span wiring: the span an
// observed asynchronous file I/O records when it completes (span, a
// step bound once).
type slotCompletion struct {
	ex    *exec
	cycle int
	t0    sim.Time
	n     int64
	open  bool // span registered and not yet recorded
	span  sim.Event[slotCompletion]
}

// wiring returns the per-slot span wiring, allocated on first use: only
// observed runs need it, and an exec is allocated per rank and
// collective.
func (ex *exec) wiring() *[2]slotCompletion {
	if ex.wire == nil {
		ex.wire = new([2]slotCompletion)
		for s := range ex.wire {
			w := &ex.wire[s]
			w.ex = ex
			w.span = sim.NewEvent(w, (*slotCompletion).record)
		}
	}
	return ex.wire
}

// record is the span step: the I/O of n bytes started at t0 is done.
func (w *slotCompletion) record() {
	w.open = false
	w.ex.ioPhase(w.cycle, w.t0, w.ex.r.Kernel().Now(), w.n)
}

// recvInto posts the receive of a total-byte message from src whose
// pieces land at segs of dst. A single piece is received in place; a
// fragmented message is staged and unpacked at completion.
//
// Symbolic fast path: without real bytes (dst nil) there is nothing to
// stage or unpack, so fragmented receives only accumulate the unpack
// charge — no staged bookkeeping, no buffers. The virtual-time cost is
// identical in both modes (TestDataSymbolicEquivalence).
func (ex *exec) recvInto(sh *shuffle, src, tag int, dst []byte, segs []seg, total int64) {
	var buf []byte
	if len(segs) == 1 {
		if dst != nil {
			s := segs[0]
			buf = dst[s.off : s.off+s.len]
		}
	} else {
		if dst != nil {
			buf = ex.stageAlloc(sh.slot, total)
			sh.staged = append(sh.staged, stagedRecv{buf: buf, segs: segs})
		}
		sh.unpackBytes += total
	}
	sh.reqs = append(sh.reqs, ex.r.Irecv(src, tag, total, buf))
}

// payload packs the pieces at segs of src into one total-byte message:
// zero-copy when contiguous, gathered into ex.packBuf and charged as a
// copy when fragmented. Every fragmented send of a cycle reuses
// ex.packBuf as soon as its Isend returns: mpi.Isend copies a data
// payload when it is posted, unlike MPI_Isend, whose buffer stays the
// library's until the send completes. Without real bytes the message
// is symbolic and the fragmented pack is charged all the same.
func (ex *exec) payload(src []byte, segs []seg, total int64) mpi.Payload {
	if !ex.dataMode {
		if len(segs) > 1 {
			ex.chargeCopy(total)
		}
		return mpi.Symbolic(total)
	}
	if len(segs) == 1 {
		s := segs[0]
		return mpi.Bytes(src[s.off : s.off+s.len])
	}
	out := ex.packBuf[:0]
	for _, s := range segs {
		out = append(out, src[s.off:s.off+s.len]...)
	}
	ex.packBuf = out
	ex.chargeCopy(total)
	return mpi.Bytes(out)
}

// sendPayload is the payload of this rank's shuffle contribution so.
func (ex *exec) sendPayload(so *sendOp) mpi.Payload {
	return ex.payload(ex.jv.Ranks[ex.r.ID()].Data, ex.p.segsOf(so), so.total)
}

// unpack copies staged receives into their pieces of dst, charging the
// copies. Single-piece receives landed in place.
func (ex *exec) unpack(sh *shuffle, dst []byte) {
	if sh.unpackBytes == 0 {
		return
	}
	for i := range sh.staged {
		st := &sh.staged[i]
		var src int64
		for _, s := range st.segs {
			copy(dst[s.off:s.off+s.len], st.buf[src:src+s.len])
			src += s.len
		}
	}
	ex.chargeCopy(sh.unpackBytes)
}

// shuffleStage is a collective write's fill: cycle c's shuffle into the
// slot's sub-buffer over the configured primitive.
type shuffleStage exec

func (s *shuffleStage) Init(c, slot int) {
	ex := (*exec)(s)
	sh := ex.openSlot(c, slot)
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
	ex.res.ShuffleTime += ex.r.Now() - sh.initAt
}

func (s *shuffleStage) Wait(slot int) {
	ex := (*exec)(s)
	sh := &ex.shState[slot]
	if !sh.open {
		return
	}
	t0 := ex.r.Now()
	switch ex.opts.Primitive {
	case TwoSided:
		ex.r.Wait(sh.reqs...)
		ex.unpack(sh, ex.bufs[slot])
	case OneSidedFence:
		ex.r.WinFence(ex.wins[slot]) // close epoch: all puts complete
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), sh.cycle, t0, ex.r.Now(), 0)
	case OneSidedLock:
		// Unlocks already forced remote completion; the barrier tells
		// aggregators every origin is done.
		ex.r.Barrier()
		ex.obs.Phase(probe.CauseSync, ex.r.ID(), sh.cycle, t0, ex.r.Now(), 0)
	case OneSidedPSCW:
		// Only exposure owners wait, and only for their own origins.
		if ex.aggIdx >= 0 {
			ex.r.WinWait(ex.wins[slot])
		}
	}
	ex.closeSlot(sh, t0)
}

func (s *shuffleStage) Sync(c, slot int) {
	s.Init(c, slot)
	s.Wait(slot)
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

// twoSidedInit posts the aggregator receives (first, so eager traffic
// matches pre-posted buffers where possible) and then packs and sends
// this rank's contributions.
func (ex *exec) twoSidedInit(sh *shuffle) {
	r := ex.r
	tag := ex.opts.TagBase + sh.cycle
	if ex.aggIdx >= 0 {
		recvs := ex.p.recvsAt(ex.aggIdx, sh.cycle)
		for i := range recvs {
			ro := &recvs[i]
			ex.recvInto(sh, int(ro.src), tag, ex.bufs[sh.slot], ex.p.rsegsOf(ro), ro.total)
		}
	}
	sends := ex.p.sendsAt(r.ID(), sh.cycle)
	for i := range sends {
		so := &sends[i]
		sh.reqs = append(sh.reqs, r.Isend(ex.p.aggRanks[so.agg], tag, ex.sendPayload(so)))
		ex.res.BytesSent += so.total
	}
}

// putAll issues this rank's puts of the cycle into an access epoch the
// caller manages (fence or PSCW).
func (ex *exec) putAll(sh *shuffle) {
	sends := ex.p.sendsAt(ex.r.ID(), sh.cycle)
	for i := range sends {
		ex.putOp(sh, &sends[i])
	}
}

// lockPutUnlockAll wraps the puts to each aggregator in a shared
// lock/unlock epoch (passive target).
func (ex *exec) lockPutUnlockAll(sh *shuffle) {
	r := ex.r
	sends := ex.p.sendsAt(r.ID(), sh.cycle)
	for i := range sends {
		tgt := ex.p.aggRanks[sends[i].agg]
		r.WinLock(ex.wins[sh.slot], mpi.LockShared, tgt)
		ex.putOp(sh, &sends[i])
		r.WinUnlock(ex.wins[sh.slot], tgt)
	}
}

// putOp issues one Put per contiguous window range of send op so
// (one-sided shuffles cannot pack, since nothing unpacks at the passive
// target).
func (ex *exec) putOp(sh *shuffle, so *sendOp) {
	data := ex.jv.Ranks[ex.r.ID()].Data
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
		ex.r.Put(ex.wins[sh.slot], tgt, ws.off, pl)
	}
	ex.res.BytesSent += so.total
}

// fileStage is the file I/O stage: cycle c's aggregator window moves
// between the slot's sub-buffer and the file. It drains a write and
// fills a read; Result.WriteTime and BytesWritten account it either way.
type fileStage exec

// window returns this rank's file window of cycle c and, in data mode,
// the slot's bytes for it (an empty extent when it moves nothing).
func (ex *exec) window(c, slot int) (datatype.Extent, []byte) {
	if ex.aggIdx < 0 {
		return datatype.Extent{}, nil
	}
	ext := ex.p.cycleExtent(ex.aggIdx, c)
	var buf []byte
	if ex.dataMode && ext.Len > 0 {
		buf = ex.bufs[slot][:ext.Len]
	}
	return ext, buf
}

// ioPhase records a file I/O span of n bytes in cycle c. A write's
// window holds the sub-buffer from submission until it is persisted.
func (ex *exec) ioPhase(c int, t0, t1 sim.Time, n int64) {
	if ex.dir == Read {
		ex.obs.Phase(probe.CauseRead, ex.r.ID(), c, t0, t1, 0)
		return
	}
	ex.obs.Phase(probe.CauseWrite, ex.r.ID(), c, t0, t1, n)
}

// Sync moves cycle c's window with a blocking POSIX call: the rank
// leaves the MPI library for the duration.
func (s *fileStage) Sync(c, slot int) {
	ex := (*exec)(s)
	ext, buf := ex.window(c, slot)
	if ext.Len == 0 {
		return
	}
	t0 := ex.r.Now()
	if ex.dir == Read {
		ex.reader.ReadSync(ex.r, ext.Off, ext.Len, buf)
	} else {
		ex.writer.WriteSync(ex.r, ext.Off, ext.Len, buf)
	}
	ex.res.WriteTime += ex.r.Now() - t0
	ex.res.BytesWritten += ext.Len
	ex.ioPhase(c, t0, ex.r.Now(), ext.Len)
}

// Init starts moving cycle c's window asynchronously (aio_write /
// aio_read).
func (s *fileStage) Init(c, slot int) {
	ex := (*exec)(s)
	ext, buf := ex.window(c, slot)
	ex.ioFut[slot] = nil
	if ext.Len == 0 {
		return
	}
	ex.res.BytesWritten += ext.Len
	var fut *sim.Future
	if ex.dir == Read {
		fut = ex.reader.ReadAsync(ex.r, ext.Off, ext.Len, buf)
	} else {
		fut = ex.writer.WriteAsync(ex.r, ext.Off, ext.Len, buf)
	}
	ex.ioFut[slot] = fut
	if ex.obs.On() {
		// A future's steps run before its waiters, so the slot's last
		// span has been recorded by the time the driver reuses it.
		w := &ex.wiring()[slot]
		if w.open {
			panic(fmt.Sprintf("fcoll: rank %d reused I/O slot %d before its cycle-%d span was recorded", ex.r.ID(), slot, w.cycle))
		}
		w.cycle, w.t0, w.n, w.open = c, ex.r.Now(), ext.Len, true
		fut.Then(&w.span)
	}
}

// Wait completes the slot's asynchronous I/O. The rank stays inside MPI
// while waiting (MPI_File_iwrite + MPI_Wait), so communication keeps
// progressing — the asymmetry at the heart of the paper's results.
func (s *fileStage) Wait(slot int) {
	ex := (*exec)(s)
	f := ex.ioFut[slot]
	if f == nil {
		return
	}
	ex.ioFut[slot] = nil
	t0 := ex.r.Now()
	ex.r.WaitFutures(f)
	ex.res.WriteTime += ex.r.Now() - t0
}
