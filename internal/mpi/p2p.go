package mpi

import (
	"fmt"

	"collio/internal/probe"
	"collio/internal/sim"
)

// Request is a non-blocking operation handle, the analogue of
// MPI_Request. Handles are pooled per LP: Wait
// recycles every request passed to it, so a request must not be used
// after it has been waited on (MPI_Request semantics — the handle is
// set to MPI_REQUEST_NULL by MPI_Wait). Use Recv's return value, or
// Received before Wait, for the received byte count. The completion
// future is embedded, so it is pooled with the request and recycled by
// the same Wait. A released request knows it: Received or Wait on one
// panics (check).
type Request struct {
	fut   sim.Future
	rank  *Rank // owning rank; nil once released
	recv  bool
	peer  int // source for receives, destination for sends
	tag   int
	pl    Payload  // send payload
	buf   []byte   // receive destination (nil in symbolic mode)
	size  int64    // receive capacity
	recvd int64    // bytes actually received
	next  *Request // pool link, nil while the request is live
}

// Received returns the number of bytes received (receives only). Only
// valid before the request is recycled by Wait; it panics after.
func (q *Request) Received() int64 {
	q.check("Received")
	return q.recvd
}

// check panics, naming op, when q has been released: the release
// clears rank, and Wait is the only release a caller makes.
func (q *Request) check(op string) {
	if q.rank == nil {
		panic("mpi: " + op + " on a released Request (Wait recycles it: read Received before Wait, and Wait once)")
	}
}

// Isend starts a non-blocking send of pl to rank dst with the given tag
// and returns its request. Messages below the eager limit are injected
// immediately and buffered at the receiver if unmatched; larger messages
// use a rendezvous handshake that requires the receiver (and the sender,
// for the CTS) to make MPI progress.
//
// Isend copies a data-mode payload when it is posted, so the caller may
// reuse pl's buffer as soon as Isend returns; the receiver gets the
// bytes as they were at the call. This is unlike MPI_Isend, whose
// buffer belongs to the library until the send completes: collective
// code here packs every fragmented send of a cycle into one scratch
// buffer and relies on the copy. The copy is host memory only; the
// modelled time is unchanged, and callers charge packing explicitly.
func (r *Rank) Isend(dst, tag int, pl Payload) *Request {
	if dst < 0 || dst >= r.w.cfg.NProcs {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	e := r.eng
	e.enter()
	defer e.exit()
	cfg := &r.w.cfg
	r.p.Sleep(cfg.CallOverhead)

	if pl.Data != nil {
		pl = Bytes(append([]byte(nil), pl.Data...)) // copy at post
	}
	req := r.newRequest()
	r.k.InitFuture(&req.fut)
	req.rank = r
	req.peer = dst
	req.tag = tag
	req.pl = pl
	dstRank := r.w.ranks[dst]
	if p := r.probeSink(); p != nil {
		path, msgCtr, byteCtr := probe.CauseEager, probe.CtrMPIEagerMsgs, probe.CtrMPIEagerBytes
		if pl.Size >= cfg.EagerLimit {
			path, msgCtr, byteCtr = probe.CauseRendezvous, probe.CtrMPIRdvMsgs, probe.CtrMPIRdvBytes
		}
		p.Emit(probe.Event{
			At: r.Now(), Layer: probe.LayerMPI, Kind: probe.KindIsend,
			Cause: path, Rank: r.id, Peer: dst, Cycle: -1, Size: pl.Size, V: int64(tag),
		})
		p.Counters().Add(msgCtr, 1)
		p.Counters().AddRank(r.id, byteCtr, pl.Size)
	}
	if pl.Size < cfg.EagerLimit {
		m := r.newMsg(msgEager, dstRank)
		m.tag, m.pl = tag, pl
		tr := r.w.net.Send(r.node, dstRank.node, pl.Size+cfg.CtrlBytes)
		tr.Injected().Then(&req.fut)
		tr.Delivered().Then(&m.onArrive)
	} else {
		m := r.newMsg(msgRTS, dstRank)
		m.tag, m.pl, m.sreq = tag, pl, req
		tr := r.w.net.Send(r.node, dstRank.node, cfg.CtrlBytes)
		tr.Delivered().Then(&m.onArrive)
	}
	return req
}

// Irecv posts a non-blocking receive of up to size bytes from rank src
// with the given tag. buf, when non-nil, receives the message bytes
// (data mode); it must be at least size long.
func (r *Rank) Irecv(src, tag int, size int64, buf []byte) *Request {
	if src < 0 || src >= r.w.cfg.NProcs {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	if buf != nil && int64(len(buf)) < size {
		panic("mpi: Irecv buffer smaller than size")
	}
	e := r.eng
	e.enter()
	defer e.exit()
	cfg := &r.w.cfg
	req := r.newRequest()
	r.k.InitFuture(&req.fut)
	req.rank = r
	req.recv = true
	req.peer = src
	req.tag = tag
	req.size = size
	req.buf = buf
	if p := r.probeSink(); p != nil {
		p.Emit(probe.Event{
			At: r.Now(), Layer: probe.LayerMPI, Kind: probe.KindIrecv,
			Rank: r.id, Peer: src, Cycle: -1, Size: size, V: int64(tag),
		})
	}
	cost := cfg.CallOverhead + e.postRecv(req)
	r.p.Sleep(cost)
	return req
}

// Wait blocks until every request has completed. The rank is inside the
// MPI library for the duration, so protocol progress (matching,
// rendezvous handshakes) continues while it waits. Each request is
// recycled into its LP's pool as its wait finishes; callers
// must not touch a request after Wait returns.
func (r *Rank) Wait(reqs ...*Request) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.waitSpan()()
	for _, q := range reqs {
		if q == nil {
			continue
		}
		q.check("Wait")
		r.p.Wait(&q.fut)
		r.releaseRequest(q)
	}
}

// waitSpan opens a KindWait probe span; the closer drops zero-length
// waits (already-complete requests) to keep the event stream small.
func (r *Rank) waitSpan() func() {
	p := r.probeSink()
	if p == nil {
		return probeNop
	}
	t0 := r.Now()
	return func() {
		if d := r.Now() - t0; d > 0 {
			p.Emit(probe.Event{
				At: t0, Dur: d, Layer: probe.LayerMPI, Kind: probe.KindWait,
				Rank: r.id, Peer: -1, Cycle: -1,
			})
		}
	}
}

// WaitFutures blocks inside MPI until all futures complete. Used by the
// collective-write engine for mixed communication/IO waits where IO
// completions arrive while the rank keeps making MPI progress
// (MPI_File_iwrite + MPI_Wait semantics).
func (r *Rank) WaitFutures(fs ...*sim.Future) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.waitSpan()()
	r.p.WaitAll(fs...)
}

// Send is a blocking send (Isend + Wait).
func (r *Rank) Send(dst, tag int, pl Payload) {
	r.Wait(r.Isend(dst, tag, pl))
}

// Recv is a blocking receive (Irecv + Wait); it returns the number of
// bytes received. The byte count is read before the request handle is
// recycled.
func (r *Rank) Recv(src, tag int, size int64, buf []byte) int64 {
	q := r.Irecv(src, tag, size, buf)
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.waitSpan()()
	r.p.Wait(&q.fut)
	n := q.recvd
	r.releaseRequest(q)
	return n
}
