package fcoll

import (
	"fmt"

	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
)

// Reader is the file-system interface the collective read engine pulls
// aggregator windows through.
type Reader interface {
	// ReadSync fills buf from [off, off+size) synchronously; the
	// calling rank blocks outside the MPI library (POSIX pread).
	ReadSync(r *mpi.Rank, off, size int64, buf []byte)
	// ReadAsync starts an asynchronous read (aio_read) and returns its
	// completion future.
	ReadAsync(r *mpi.Rank, off, size int64, buf []byte) *sim.Future
}

// RunRead executes a two-phase collective read: per cycle each
// aggregator reads its file window and scatters the pieces back to
// their owners — the dual of the collective write, with the paper's
// overlap algorithms mapped onto (file read, scatter) instead of
// (shuffle, file write). Collective reads are the extension the paper's
// related work discusses (view-based I/O read-ahead); only the
// two-sided primitive is implemented for the scatter.
//
// In data mode (jv.Ranks[i].Data non-nil) each rank's buffer is filled
// with its view's bytes.
func RunRead(r *mpi.Rank, jv *JobView, file Reader, opts Options) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	if opts.Primitive != TwoSided {
		return Result{}, fmt.Errorf("fcoll: collective read supports only the two-sided primitive, got %v", opts.Primitive)
	}
	if opts.Hierarchical {
		return Result{}, fmt.Errorf("fcoll: collective read does not support hierarchical aggregation")
	}
	if len(jv.Ranks) != r.Size() {
		return Result{}, fmt.Errorf("fcoll: job view has %d ranks, world has %d", len(jv.Ranks), r.Size())
	}
	start := r.Now()
	r.EnterMPI()
	defer r.ExitMPI()

	ex := &readExec{
		r: r, jv: jv, file: file, opts: opts, obs: opts.observer(r.Node()),
		dataMode: jv.Ranks[r.ID()].Data != nil || jv.DataMode(),
	}
	ex.setup()
	switch opts.Algorithm {
	case NoOverlap:
		ex.runNoOverlap()
	case CommOverlap:
		ex.runScatterOverlap()
	case WriteOverlap:
		ex.runReadAhead()
	case WriteCommOverlap:
		ex.runReadComm()
	case WriteComm2Overlap, DataflowOverlap:
		ex.runReadComm2()
	default:
		return Result{}, fmt.Errorf("fcoll: unknown algorithm %v", opts.Algorithm)
	}
	tSync := r.Now()
	r.Barrier()
	ex.obs.Phase(probe.CauseSync, r.ID(), -1, tSync, r.Now(), 0)
	ex.res.Elapsed = r.Now() - start
	ex.res.Cycles = ex.p.ncycles
	ex.res.Aggregator = ex.aggIdx >= 0
	if p := ex.obs.Probe; p != nil {
		p.Emit(probe.Event{
			At: start, Dur: ex.res.Elapsed, Layer: probe.LayerFcoll,
			Kind: probe.KindCollOp, Cause: probe.CauseCollRead,
			Rank: r.ID(), Peer: -1, Cycle: ex.p.ncycles, Size: ex.res.BytesWritten,
		})
	}
	return ex.res, nil
}

// readExec is the per-rank execution state of one collective read.
// Scratch fields mirror exec's: grow-only, recycled across cycles.
type readExec struct {
	r        *mpi.Rank
	jv       *JobView
	p        *plan
	file     Reader
	opts     Options
	obs      Observer
	dataMode bool
	aggIdx   int
	slots    int
	bufs     [2][]byte
	res      Result

	scState   [2]scatter // per-slot scatter state, reused across cycles
	stageBuf  [2][]byte  // per-slot staged-receive arenas (data mode)
	stageUsed [2]int64
	packBuf   []byte // packWindow scratch; reusable because Isend snapshots
}

func (ex *readExec) setup() {
	r := ex.r
	// The same plan-establishment collectives as the write path.
	counts := r.AllgatherI64(int64(len(ex.jv.Ranks[r.ID()].Extents)))
	sizes := make([]int64, len(counts))
	for i, c := range counts {
		sizes[i] = 16 * c
	}
	r.Allgatherv(mpi.Symbolic(sizes[r.ID()]), sizes)

	window := ex.opts.BufferSize
	ex.slots = 1
	if ex.opts.Algorithm != NoOverlap {
		window /= 2
		ex.slots = 2
	}
	ex.p = buildPlan(ex.jv, r.Size(), r.World().Config().RanksPerNode, window, ex.opts.Aggregators, ex.opts.Layout, 0)
	ex.aggIdx = ex.p.aggIndexOf(r.ID())
	if ex.aggIdx >= 0 && ex.dataMode {
		for s := 0; s < ex.slots; s++ {
			ex.bufs[s] = make([]byte, window)
		}
	}
}

func (ex *readExec) chargeCopy(n int64) {
	if n <= 0 {
		return
	}
	fut := ex.r.World().Network().Memcpy(ex.r.Node(), n)
	ex.r.WaitFutures(fut)
}

// stageAlloc mirrors exec.stageAlloc for the scatter's staged receives.
func (ex *readExec) stageAlloc(slot int, n int64) []byte {
	u := ex.stageUsed[slot]
	if int64(len(ex.stageBuf[slot]))-u < n {
		grown := int64(len(ex.stageBuf[slot]))*2 + n
		ex.stageBuf[slot] = make([]byte, grown)
		u = 0
	}
	ex.stageUsed[slot] = u + n
	return ex.stageBuf[slot][u : u+n : u+n]
}

// readInit starts the asynchronous file read of cycle c's window into
// slot (nil when this rank reads nothing this cycle).
func (ex *readExec) readInit(c, slot int) *sim.Future {
	if ex.aggIdx < 0 {
		return nil
	}
	ext := ex.p.cycleExtent(ex.aggIdx, c)
	if ext.Len == 0 {
		return nil
	}
	var buf []byte
	if ex.dataMode {
		buf = ex.bufs[slot][:ext.Len]
	}
	ex.res.BytesWritten += ext.Len // accounted as file traffic
	fut := ex.file.ReadAsync(ex.r, ext.Off, ext.Len, buf)
	if ex.obs.On() {
		obs, rank, k, t0 := ex.obs, ex.r.ID(), ex.r.Kernel(), ex.r.Now()
		fut.OnDone(func() { obs.Phase(probe.CauseRead, rank, c, t0, k.Now(), 0) })
	}
	return fut
}

// readWait completes an asynchronous read, inside MPI.
func (ex *readExec) readWait(f *sim.Future) {
	if f == nil {
		return
	}
	t0 := ex.r.Now()
	ex.r.WaitFutures(f)
	ex.res.WriteTime += ex.r.Now() - t0
}

// readSync performs the blocking read (the rank leaves MPI).
func (ex *readExec) readSync(c, slot int) {
	if ex.aggIdx < 0 {
		return
	}
	ext := ex.p.cycleExtent(ex.aggIdx, c)
	if ext.Len == 0 {
		return
	}
	t0 := ex.r.Now()
	var buf []byte
	if ex.dataMode {
		buf = ex.bufs[slot][:ext.Len]
	}
	ex.file.ReadSync(ex.r, ext.Off, ext.Len, buf)
	ex.res.WriteTime += ex.r.Now() - t0
	ex.res.BytesWritten += ext.Len
	ex.obs.Phase(probe.CauseRead, ex.r.ID(), c, t0, ex.r.Now(), 0)
}

// scatter is an in-flight scatter phase (the reverse shuffle).
type scatter struct {
	cycle, slot int
	initAt      sim.Time
	reqs        []*mpi.Request
	staged      []scatterRecv
	unpackBytes int64
}

type scatterRecv struct {
	buf []byte
	op  sendOp // this rank's placement map for the incoming data
}

// scatterInit posts this rank's receives for its view pieces of cycle c
// and, on aggregators, packs and sends each destination's data out of
// the sub-buffer. The returned state is the slot's recycled scatter
// struct, valid until the next scatterInit on the same slot.
//
// Symbolic fast path: as in twoSidedInit, fragmented receives without
// real bytes only accumulate the unpack charge.
func (ex *readExec) scatterInit(c, slot int) *scatter {
	t0 := ex.r.Now()
	sc := &ex.scState[slot]
	sc.cycle, sc.slot, sc.initAt = c, slot, t0
	sc.reqs = sc.reqs[:0]
	sc.staged = sc.staged[:0]
	sc.unpackBytes = 0
	ex.stageUsed[slot] = 0
	r := ex.r
	ex.obs.Cycle(r.ID(), c, slot, t0)
	tag := ex.opts.TagBase + c
	ex.r.AlltoallSync(8) // per-cycle size exchange, as in the write path

	// Receive side: every rank's sends-map describes what it gets back.
	myData := ex.jv.Ranks[r.ID()].Data
	sends := ex.p.sendsAt(r.ID(), c)
	for i := range sends {
		so := &sends[i]
		var buf []byte
		if so.nseg == 1 {
			if ex.dataMode && myData != nil {
				s := ex.p.segsOf(so)[0]
				buf = myData[s.off : s.off+s.len]
			}
		} else {
			if ex.dataMode {
				if myData != nil {
					buf = ex.stageAlloc(slot, so.total)
				}
				sc.staged = append(sc.staged, scatterRecv{buf: buf, op: *so})
			}
			sc.unpackBytes += so.total
		}
		sc.reqs = append(sc.reqs, r.Irecv(ex.p.aggRanks[so.agg], tag, so.total, buf))
	}
	// Send side (aggregators): pack each destination's window segments.
	if ex.aggIdx >= 0 {
		recvs := ex.p.recvsAt(ex.aggIdx, c)
		for i := range recvs {
			ro := &recvs[i]
			var pl mpi.Payload
			if ex.dataMode {
				pl = mpi.Bytes(ex.packWindow(ro, slot))
			} else {
				pl = mpi.Symbolic(ro.total)
				if ro.nseg > 1 {
					ex.chargeCopy(ro.total)
				}
			}
			sc.reqs = append(sc.reqs, r.Isend(int(ro.src), tag, pl))
			ex.res.BytesSent += ro.total
		}
	}
	ex.res.ShuffleTime += ex.r.Now() - t0
	return sc
}

// packWindow gathers a destination's segments out of the sub-buffer.
// The fragmented result aliases ex.packBuf (Isend snapshots it).
func (ex *readExec) packWindow(ro *recvOp, slot int) []byte {
	segs := ex.p.rsegsOf(ro)
	if len(segs) == 1 {
		s := segs[0]
		return ex.bufs[slot][s.off : s.off+s.len]
	}
	out := ex.packBuf[:0]
	for _, s := range segs {
		out = append(out, ex.bufs[slot][s.off:s.off+s.len]...)
	}
	ex.packBuf = out
	ex.chargeCopy(ro.total)
	return out
}

// scatterWait completes the scatter and unpacks staged receives into
// the rank's view buffer.
func (ex *readExec) scatterWait(sc *scatter) {
	t0 := ex.r.Now()
	ex.r.Wait(sc.reqs...)
	if sc.unpackBytes > 0 {
		myData := ex.jv.Ranks[ex.r.ID()].Data
		for i := range sc.staged {
			st := &sc.staged[i]
			if st.buf == nil || myData == nil {
				continue
			}
			var src int64
			for _, s := range ex.p.segsOf(&st.op) {
				copy(myData[s.off:s.off+s.len], st.buf[src:src+s.len])
				src += s.len
			}
		}
		ex.chargeCopy(sc.unpackBytes)
	}
	ex.res.ShuffleTime += ex.r.Now() - t0
	ex.obs.Phase(probe.CauseShuffle, ex.r.ID(), sc.cycle, sc.initAt, ex.r.Now(), 0)
}

func (ex *readExec) scatterBlocking(c, slot int) {
	ex.scatterWait(ex.scatterInit(c, slot))
}

// runNoOverlap: read the window, scatter it, repeat.
func (ex *readExec) runNoOverlap() {
	for c := 0; c < ex.p.ncycles; c++ {
		ex.readSync(c, 0)
		ex.scatterBlocking(c, 0)
	}
}

// runScatterOverlap is the CommOverlap dual: blocking reads,
// non-blocking scatters — the scatter of cycle c runs while cycle c+1
// is read (and stalls while the aggregator sits in the blocking pread,
// the same §III-A progress effect as for writes).
func (ex *readExec) runScatterOverlap() {
	n := ex.p.ncycles
	var sc [2]*scatter
	ex.readSync(0, 0)
	sc[0] = ex.scatterInit(0, 0)
	for c := 1; c < n; c++ {
		s := c % 2
		if sc[s] != nil {
			ex.scatterWait(sc[s]) // buffer reuse: previous scatter done
			sc[s] = nil
		}
		ex.readSync(c, s)
		sc[s] = ex.scatterInit(c, s)
	}
	for _, s := range sc {
		if s != nil {
			ex.scatterWait(s)
		}
	}
}

// runReadAhead is the WriteOverlap dual: asynchronous reads, blocking
// scatters — cycle c+1 is prefetched by the OS while cycle c scatters
// (the read-ahead of view-based collective I/O).
func (ex *readExec) runReadAhead() {
	n := ex.p.ncycles
	var rd [2]*sim.Future
	rd[0] = ex.readInit(0, 0)
	for c := 0; c < n; c++ {
		s := c % 2
		ex.readWait(rd[s])
		rd[s] = nil
		if c+1 < n {
			rd[1-s] = ex.readInit(c+1, 1-s)
		}
		ex.scatterBlocking(c, s)
	}
}

// runReadComm is the WriteCommOverlap dual: both phases non-blocking,
// waited together each cycle.
func (ex *readExec) runReadComm() {
	n := ex.p.ncycles
	ex.readSync(0, 0)
	for c := 1; c < n; c++ {
		s := c % 2
		rd := ex.readInit(c, s)
		sc := ex.scatterInit(c-1, 1-s)
		ex.scatterWait(sc)
		ex.readWait(rd)
	}
	ex.scatterBlocking(n-1, (n-1)%2)
}

// runReadComm2 is the WriteComm2 dual: a two-deep pipeline where every
// completion immediately posts its successor.
func (ex *readExec) runReadComm2() {
	n := ex.p.ncycles
	var rd [2]*sim.Future
	var sc [2]*scatter
	rd[0] = ex.readInit(0, 0)
	for c := 0; c < n; c++ {
		s := c % 2
		ex.readWait(rd[s])
		rd[s] = nil
		if c+1 < n {
			o := 1 - s
			if sc[o] != nil {
				ex.scatterWait(sc[o]) // free the other buffer first
				sc[o] = nil
			}
			rd[o] = ex.readInit(c+1, o)
		}
		sc[s] = ex.scatterInit(c, s)
	}
	for _, s := range sc {
		if s != nil {
			ex.scatterWait(s)
		}
	}
}
