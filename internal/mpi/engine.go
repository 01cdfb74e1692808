package mpi

import (
	"collio/internal/probe"
	"collio/internal/sim"
)

// packet is a protocol event arriving at a rank's engine.
type packet interface{}

// eagerPkt carries a fully-delivered eager message.
type eagerPkt struct {
	src, tag int
	pl       Payload
}

// rtsPkt is a rendezvous ready-to-send arriving at the receiver.
type rtsPkt struct {
	src, tag int
	size     int64
	sreq     *Request
}

// ctsPkt is a clear-to-send arriving back at the sender.
type ctsPkt struct {
	sreq *Request
	rreq *Request
}

// rdvDonePkt signals, at the receiver, that rendezvous data has fully
// arrived in the receive buffer.
type rdvDonePkt struct {
	rreq *Request
	pl   Payload
}

// rdvChunkPkt signals, at the receiver, that one pipeline chunk of a
// rendezvous transfer has arrived; the receiver's progress engine then
// requests a further chunk. This models software-pipelined rendezvous
// (registration/copy pipelining in UCX-class libraries): the bulk
// transfer keeps moving only while the receiver makes MPI progress,
// which is why a rank stuck in a blocking write stalls inbound
// rendezvous traffic (§III-A of the paper).
type rdvChunkPkt struct {
	st *rdvState
}

// rdvState tracks one pipelined rendezvous bulk transfer. It snapshots
// everything it needs from the send request at creation: the sender
// completes locally (and its pooled request may be recycled by Wait) at
// last-chunk injection, while chunk deliveries keep arriving afterwards.
// sfut points into the send request, so it is dropped once the last
// chunk's injection forward is registered. The receive request stays
// live until rdvDone completes it, so holding it is safe.
type rdvState struct {
	pl        Payload     // sender payload
	srcID     int         // sender rank id
	sfut      *sim.Future // sender-side (local) completion, until the last chunk
	rreq      *Request
	next      int64 // offset of the next chunk to request
	delivered int64 // bytes fully arrived
}

// engine is the per-rank protocol state machine. All protocol actions on
// behalf of a rank run only while the rank is inside the MPI library
// (inMPI > 0) or when a progress thread is configured; otherwise
// arrivals queue in pending until the rank next enters MPI. This is the
// progress model from §III-A.1 of the reproduced paper.
type engine struct {
	r          *Rank
	inMPI      int
	pending    []packet
	posted     []*Request  // receive requests awaiting a match
	unexpected []*eagerPkt // eager arrivals awaiting a receive
	pendingRTS []*rtsPkt   // rendezvous announcements awaiting a receive

	// stallSince is the arrival time of the oldest packet in pending —
	// the start of the current handshake-stall interval (§III-A.1).
	// Only meaningful while len(pending) > 0.
	stallSince sim.Time
}

func newEngine(r *Rank) *engine { return &engine{r: r} }

func (e *engine) enter() {
	e.inMPI++
	if e.inMPI == 1 {
		e.drain()
	}
}

func (e *engine) exit() {
	if e.inMPI == 0 {
		panic("mpi: ExitMPI without matching EnterMPI")
	}
	e.inMPI--
}

func (e *engine) progressing() bool {
	return e.inMPI > 0 || e.r.w.cfg.ProgressThread
}

// arrive is called (usually from kernel context) when a protocol packet
// reaches this rank.
func (e *engine) arrive(pkt packet) {
	if e.progressing() {
		e.handle(pkt)
		return
	}
	if len(e.pending) == 0 {
		e.stallSince = e.r.k.Now()
	}
	e.pending = append(e.pending, pkt)
}

func (e *engine) drain() {
	if p := e.r.probeSink(); p != nil && len(e.pending) > 0 {
		// Protocol packets sat queued while this rank was outside MPI —
		// the handshake stall the paper's overlap algorithms fight. The
		// span runs from the first queued arrival to this drain.
		now := e.r.k.Now()
		stall := now - e.stallSince
		p.Emit(probe.Event{
			At: e.stallSince, Dur: stall, Layer: probe.LayerMPI,
			Kind: probe.KindStall, Cause: probe.CauseNoProgress,
			Rank: e.r.id, Peer: -1, Cycle: -1, V: int64(len(e.pending)),
		})
		ctr := p.Counters()
		ctr.AddRank(e.r.id, probe.CtrMPIStallNS, int64(stall))
		ctr.Add(probe.CtrMPIStalls, 1)
	}
	for len(e.pending) > 0 {
		pkt := e.pending[0]
		e.pending = e.pending[1:]
		e.handle(pkt)
	}
}

// emitProto records one protocol transition at the current virtual time
// (no-op without a probe).
func (e *engine) emitProto(cause probe.Cause, peer int, size int64) {
	p := e.r.probeSink()
	if p == nil {
		return
	}
	p.Emit(probe.Event{
		At: e.r.k.Now(), Layer: probe.LayerMPI, Kind: probe.KindProto,
		Cause: cause, Rank: e.r.id, Peer: peer, Cycle: -1, Size: size,
	})
}

// matchPosted removes and returns the first posted receive matching
// (src, tag), along with the number of entries scanned.
func (e *engine) matchPosted(src, tag int) (*Request, int) {
	for i, req := range e.posted {
		if req.peer == src && req.tag == tag {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return req, i + 1
		}
	}
	return nil, len(e.posted)
}

func (e *engine) handle(pkt packet) {
	cfg := &e.r.w.cfg
	k := e.r.k
	switch p := pkt.(type) {
	case *eagerPkt:
		e.emitProto(probe.CauseEagerArrive, p.src, p.pl.Size)
		req, scanned := e.matchPosted(p.src, p.tag)
		if req == nil {
			e.unexpected = append(e.unexpected, p)
			if pr := e.r.probeSink(); pr != nil {
				pr.Emit(probe.Event{
					At: k.Now(), Layer: probe.LayerMPI, Kind: probe.KindUnexpected,
					Cause: probe.CauseEager, Rank: e.r.id, Peer: p.src, Cycle: -1,
					Size: p.pl.Size, V: int64(len(e.unexpected)),
				})
				pr.Counters().SetMax(probe.CtrMPIUnexpPeak, int64(len(e.unexpected)))
			}
			return
		}
		// Pre-posted receive: the NIC lands data in place; charge only
		// handler and matching cost.
		delay := cfg.HandlerCost + sim.Time(scanned)*cfg.MatchCost
		e.finishRecv(req, p.pl, delay)
	case *rtsPkt:
		e.emitProto(probe.CauseRTS, p.src, p.size)
		req, scanned := e.matchPosted(p.src, p.tag)
		if req == nil {
			e.pendingRTS = append(e.pendingRTS, p)
			return
		}
		delay := cfg.HandlerCost + sim.Time(scanned)*cfg.MatchCost
		k.After(delay, func() { e.sendCTS(p, req) })
	case *ctsPkt:
		// Sender side: start the bulk data transfer.
		e.emitProto(probe.CauseCTS, p.rreq.rank.id, p.sreq.pl.Size)
		k.After(cfg.HandlerCost, func() { e.startRdvData(p.sreq, p.rreq) })
	case *rdvChunkPkt:
		// One pipeline chunk landed; request the next (costs a handler
		// tick of receiver-side progress).
		e.emitProto(probe.CauseChunk, p.st.srcID, p.st.delivered)
		k.After(cfg.HandlerCost, func() { e.r.w.sendRdvChunk(p.st) })
	case *rdvDonePkt:
		// Data is already in the user buffer (RDMA); completion
		// detection costs one handler tick.
		e.emitProto(probe.CauseRdvDone, p.rreq.peer, p.pl.Size)
		e.finishRecv(p.rreq, p.pl, cfg.HandlerCost)
	default:
		panic("mpi: unknown packet type")
	}
}

// finishRecv completes a receive request after delay. The payload is
// treated as having landed directly in the destination buffer (pre-
// posted receive or RDMA rendezvous), so no memory-bandwidth cost is
// charged beyond delay.
func (e *engine) finishRecv(req *Request, pl Payload, delay sim.Time) {
	if req.buf != nil && pl.Data != nil {
		copy(req.buf, pl.Data)
	}
	req.recvd = pl.Size
	e.r.k.CompleteAfter(delay, &req.fut)
}

// finishRecvWithCopy completes a receive whose data sits in the
// unexpected queue: an extra memory copy at the node's memory bandwidth
// is charged before completion.
func (e *engine) finishRecvWithCopy(req *Request, pl Payload, delay sim.Time) {
	k := e.r.k
	if req.buf != nil && pl.Data != nil {
		copy(req.buf, pl.Data)
	}
	req.recvd = pl.Size
	k.After(delay, func() {
		cp := e.r.w.net.Memcpy(e.r.node, pl.Size)
		cp.Then(&req.fut)
	})
}

// sendCTS transmits a clear-to-send back to the origin of an RTS.
func (e *engine) sendCTS(p *rtsPkt, rreq *Request) {
	w := e.r.w
	src := w.ranks[p.src]
	tr := w.net.Send(e.r.node, src.node, w.cfg.CtrlBytes)
	tr.Delivered.OnDone(func() {
		src.eng.arrive(&ctsPkt{sreq: p.sreq, rreq: rreq})
	})
	w.net.Release(tr)
}

// startRdvData launches the rendezvous bulk transfer from the sender:
// up to RendezvousDepth pipeline chunks go out immediately; each
// delivery lets the receiver's progress engine request one more.
func (e *engine) startRdvData(sreq, rreq *Request) {
	w := e.r.w
	st := &rdvState{pl: sreq.pl, srcID: sreq.rank.id, sfut: &sreq.fut, rreq: rreq}
	depth := w.cfg.RendezvousDepth
	if depth < 1 || w.cfg.RendezvousChunk <= 0 {
		depth = 1
	}
	for i := 0; i < depth && st.next < st.pl.Size; i++ {
		w.sendRdvChunk(st)
	}
}

// sendRdvChunk ships the next pipeline chunk of st. It runs in engine
// context at whichever endpoint drives the pipeline step (the sender
// when filling the initial window, the receiver's progress engine
// afterwards).
func (w *World) sendRdvChunk(st *rdvState) {
	total := st.pl.Size
	if st.next >= total {
		return // transfer fully requested
	}
	size := w.cfg.RendezvousChunk
	if size <= 0 || size > total-st.next {
		size = total - st.next
	}
	st.next += size
	last := st.next >= total
	src := w.ranks[st.srcID]
	dst := w.ranks[st.rreq.rank.id]
	tr := w.net.SendFlow(st, src.node, dst.node, size)
	if last {
		// Local (sender) completion at last-chunk injection, as with a
		// zero-copy rendezvous protocol.
		tr.Injected.Then(st.sfut)
		st.sfut = nil // the future lives in the pooled send request
	}
	tr.Delivered.OnDone(func() {
		st.delivered += size
		if st.delivered >= total {
			dst.eng.arrive(&rdvDonePkt{rreq: st.rreq, pl: st.pl})
			return
		}
		if !last {
			dst.eng.arrive(&rdvChunkPkt{st: st})
		}
	})
	w.net.Release(tr)
}

// postRecv registers a receive request, first searching the unexpected
// and pending-RTS queues. It returns the virtual-time cost of the queue
// search, which the caller (running in process context) charges as MPI
// software time.
func (e *engine) postRecv(req *Request) sim.Time {
	cfg := &e.r.w.cfg
	var cost sim.Time
	for i, um := range e.unexpected {
		cost += cfg.MatchCost
		if um.src == req.peer && um.tag == req.tag {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			// Late match: data must be copied out of the internal
			// bounce buffer at memory bandwidth.
			e.finishRecvWithCopy(req, um.pl, cfg.HandlerCost)
			return cost
		}
	}
	for i, rts := range e.pendingRTS {
		cost += cfg.MatchCost
		if rts.src == req.peer && rts.tag == req.tag {
			e.pendingRTS = append(e.pendingRTS[:i], e.pendingRTS[i+1:]...)
			e.sendCTS(rts, req)
			return cost
		}
	}
	e.posted = append(e.posted, req)
	return cost
}
