package mpi

import (
	"collio/internal/probe"
	"collio/internal/sim"
)

// msgKind says what a pooled msg carries and where it is consumed.
type msgKind uint8

const (
	msgEager   msgKind = iota // an eager message, consumed by its receive
	msgRTS                    // a rendezvous ready-to-send; it becomes the CTS
	msgCTS                    // a clear-to-send, consumed by the data transfer's start
	msgChunk                  // one rendezvous chunk landed; the receiver requests the next
	msgRdvDone                // the rendezvous data has fully arrived
	msgLock                   // a lock request for the target's RMA agent
	msgUnlock                 // an unlock request for the target's RMA agent
	msgPut                    // a locked-epoch put's completion at the agent
)

// msg is a pooled protocol message: every packet the point-to-point
// protocol puts on the wire — the eager message, the rendezvous
// handshake (RTS, then CTS) and the rendezvous chunk and completion
// notices — and every request served by a target's passive-target RMA
// agent (rma.go). The sender takes it from the world's pool (Rank.newMsg)
// and registers it on its transfer's Delivered: the msg is itself every
// action of its chain, through sim.Events bound once when its pool slab
// is made, so a message allocates nothing. The
// engine that consumes it returns it to the pool
// (engine.releaseMsg): an eager message when its receive completes, an
// RTS (turned CTS) when the sender starts the data transfer, a chunk
// notice when the next chunk is requested, an agent request when the
// agent has acted on it.
//
// Engines receive nothing else: a msg is the one packet type, and
// handle dispatches on its kind.
type msg struct {
	kind     msgKind
	last     bool     // chunk: the transfer's last chunk
	src, tag int      // sending rank; tag (point-to-point)
	pl       Payload  // the message (eager), the announced send (RTS) or the chunk's size
	sreq     *Request // RTS and CTS: the send request
	rreq     *Request // the matched receive, from matching to consumption
	st       *rdvState
	eng      *engine // the consuming engine: the receiver's, the sender's (CTS) or the target's

	// Agent requests: the window, the lock type and the future the
	// agent completes (lock grant, unlock ack, put completion). A late
	// eager match points fut at its receive's future.
	win *Window
	typ LockType
	fut *sim.Future

	onArrive, onServed, onRun, onCopied sim.Event[msg]
	next                                *msg // pool link, nil while the msg is live
}

// check panics, naming op, when m has been released: the release
// clears eng, which every live message has.
func (m *msg) check(op string) {
	if m.eng == nil {
		panic("mpi: " + op + " of a released protocol message (msg)")
	}
}

// newMsg takes a zeroed msg, its actions bound, from the world's pool.
func (r *Rank) newMsg(kind msgKind, dst *Rank) *msg {
	m := r.w.msgs.Get()
	m.kind, m.src, m.eng = kind, r.id, dst.eng
	return m
}

// releaseMsg returns a consumed msg to the pool. Callers
// have read everything they need from it.
func (e *engine) releaseMsg(m *msg) {
	m.check("release")
	*m = msg{onArrive: m.onArrive, onServed: m.onServed, onRun: m.onRun, onCopied: m.onCopied}
	e.r.w.msgs.Put(m)
}

// arrive is the msg's delivery, registered on its transfer's Delivered:
// a point-to-point msg reaches the receiving engine, an agent request
// queues at the target's agent. A rendezvous chunk is counted the
// moment it lands, whether or not the receiver is in MPI; the engine
// then hears of it only if it completes the data or is not the last
// chunk (the last one's notice would request nothing).
func (m *msg) arrive() {
	m.check("delivery")
	e := m.eng
	switch m.kind {
	case msgLock, msgUnlock, msgPut:
		e.r.agent().SubmitFlowOnStartTo(&m.onServed, nil, 0, nil)
		return
	case msgChunk:
		st := m.st
		st.delivered += m.pl.Size
		if st.delivered >= st.pl.Size {
			m.kind = msgRdvDone
		} else if m.last {
			e.releaseMsg(m)
			return
		}
	}
	e.arrive(m)
}

// served is the agent's completion; the request is acted on one
// zero-delay hop later.
func (m *msg) served() {
	m.check("agent service")
	m.eng.r.k.AfterAction(0, &m.onRun)
}

// run is the msg's delayed step: the CTS of a matched RTS, the bounce
// copy of a late-matched eager message, the data transfer a CTS starts,
// the next chunk a chunk notice requests, or the agent's action.
func (m *msg) run() {
	m.check("delayed step")
	e := m.eng
	switch m.kind {
	case msgRTS:
		e.sendCTS(m)
	case msgEager:
		e.r.w.net.MemcpyTo(&m.onCopied, e.r.node, m.pl.Size)
	case msgCTS:
		sreq, rreq := m.sreq, m.rreq
		e.releaseMsg(m)
		e.startRdvData(sreq, rreq)
	case msgChunk:
		st := m.st
		e.releaseMsg(m)
		e.r.w.sendRdvChunk(e.r, st)
	default:
		e.r.runAgent(m)
	}
}

// copied completes m.fut one zero-delay hop after a bounce copy, where
// the copy's own future would have forwarded it.
func (m *msg) copied() {
	m.check("bounce copy")
	e := m.eng
	e.r.k.CompleteAfter(0, m.fut)
	e.releaseMsg(m)
}

// rdvState tracks one pipelined rendezvous bulk transfer. Each landed
// chunk notifies the receiver (msgChunk), whose progress engine then
// requests a further chunk. This models software-pipelined rendezvous
// (registration/copy pipelining in UCX-class libraries): the bulk
// transfer keeps moving only while the receiver makes MPI progress,
// which is why a rank stuck in a blocking write stalls inbound
// rendezvous traffic (§III-A of the paper). It snapshots
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
	pending    []*msg
	posted     []*Request // receive requests awaiting a match
	unexpected []*msg     // eager arrivals awaiting a receive
	pendingRTS []*msg     // rendezvous announcements awaiting a receive

	// stallSince is the arrival time of the oldest packet in pending —
	// the start of the current handshake-stall interval (§III-A.1).
	// Only meaningful while len(pending) > 0.
	stallSince sim.Time
}

// queueSlots is the capacity each engine's three match queues (posted,
// unexpected, pendingRTS) start with: deep enough for the collectives'
// rounds, where a rank behind its peers finds several rounds' messages
// waiting.
const queueSlots = 8

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
func (e *engine) arrive(m *msg) {
	if e.progressing() {
		e.handle(m)
		return
	}
	if len(e.pending) == 0 {
		e.stallSince = e.r.k.Now()
	}
	e.pending = append(e.pending, m)
}

func (e *engine) drain() {
	if p := e.r.w.probe; p != nil && len(e.pending) > 0 {
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
	// Handling schedules events but never arrives here synchronously,
	// so the queue is stable while it drains and its array is reused.
	for i, m := range e.pending {
		e.pending[i] = nil
		e.handle(m)
	}
	e.pending = e.pending[:0]
}

// emitProto records one protocol transition at the current virtual time
// (no-op without a probe).
func (e *engine) emitProto(cause probe.Cause, peer int, size int64) {
	p := e.r.w.probe
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

// handle acts on one protocol message, in engine context.
func (e *engine) handle(p *msg) {
	cfg := &e.r.w.cfg
	k := e.r.k
	switch p.kind {
	case msgEager:
		e.emitProto(probe.CauseEagerArrive, p.src, p.pl.Size)
		req, scanned := e.matchPosted(p.src, p.tag)
		if req == nil {
			e.unexpected = append(e.unexpected, p)
			if pr := e.r.w.probe; pr != nil {
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
		e.releaseMsg(p)
	case msgRTS:
		e.handleRTS(p)
	case msgCTS:
		// Sender side: start the bulk data transfer.
		e.emitProto(probe.CauseCTS, p.rreq.rank.id, p.sreq.pl.Size)
		k.AfterAction(cfg.HandlerCost, &p.onRun)
	case msgChunk:
		// One pipeline chunk landed; request the next (costs a handler
		// tick of receiver-side progress).
		e.emitProto(probe.CauseChunk, p.st.srcID, p.st.delivered)
		k.AfterAction(cfg.HandlerCost, &p.onRun)
	case msgRdvDone:
		// Data is already in the user buffer (RDMA); completion
		// detection costs one handler tick.
		st := p.st
		e.emitProto(probe.CauseRdvDone, st.rreq.peer, st.pl.Size)
		e.finishRecv(st.rreq, st.pl, cfg.HandlerCost)
		e.releaseMsg(p)
	default:
		panic("mpi: engine received an RMA agent request")
	}
}

// handleRTS matches a rendezvous announcement; the CTS goes out after
// the handler and matching cost, or when a receive is posted.
func (e *engine) handleRTS(p *msg) {
	cfg := &e.r.w.cfg
	e.emitProto(probe.CauseRTS, p.src, p.pl.Size)
	req, scanned := e.matchPosted(p.src, p.tag)
	if req == nil {
		e.pendingRTS = append(e.pendingRTS, p)
		return
	}
	p.rreq = req
	e.r.k.AfterAction(cfg.HandlerCost+sim.Time(scanned)*cfg.MatchCost, &p.onRun)
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
// unexpected queue as eager message m: an extra memory copy at the
// node's memory bandwidth is charged before completion (m.run, then
// m.copied, which releases m).
func (e *engine) finishRecvWithCopy(req *Request, m *msg, delay sim.Time) {
	if req.buf != nil && m.pl.Data != nil {
		copy(req.buf, m.pl.Data)
	}
	req.recvd = m.pl.Size
	m.rreq, m.fut = req, &req.fut
	e.r.k.AfterAction(delay, &m.onRun)
}

// sendCTS transmits a clear-to-send back to the origin of RTS p: p
// itself travels back as the CTS.
func (e *engine) sendCTS(p *msg) {
	w := e.r.w
	src := w.ranks[p.src]
	p.kind, p.eng = msgCTS, src.eng
	tr := w.net.Send(e.r.node, src.node, w.cfg.CtrlBytes)
	tr.Delivered().Then(&p.onArrive)
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
		w.sendRdvChunk(e.r, st)
	}
}

// sendRdvChunk ships the next pipeline chunk of st. It runs in engine
// context at whichever endpoint drives the pipeline step, by: the
// sender when filling the initial window, the receiver's progress
// engine afterwards. The chunk's notice is taken from the pool by by.
func (w *World) sendRdvChunk(by *Rank, st *rdvState) {
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
		tr.Injected().Then(st.sfut)
		st.sfut = nil // the future lives in the pooled send request
	}
	m := by.newMsg(msgChunk, dst)
	m.pl, m.st, m.last = Symbolic(size), st, last
	tr.Delivered().Then(&m.onArrive)
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
			e.finishRecvWithCopy(req, um, cfg.HandlerCost)
			return cost
		}
	}
	for i, rts := range e.pendingRTS {
		cost += cfg.MatchCost
		if rts.src == req.peer && rts.tag == req.tag {
			e.pendingRTS = append(e.pendingRTS[:i], e.pendingRTS[i+1:]...)
			rts.rreq = req
			e.sendCTS(rts)
			return cost
		}
	}
	e.posted = append(e.posted, req)
	return cost
}
