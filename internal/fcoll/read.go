package fcoll

import (
	"collio/internal/mpi"
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

// scatterStage is a collective read's drain, the reverse shuffle: every
// rank receives its view pieces of cycle c, and aggregators pack and
// send each destination's data out of the slot's sub-buffer.
type scatterStage exec

func (s *scatterStage) Init(c, slot int) {
	ex := (*exec)(s)
	sh := ex.openSlot(c, slot)
	r := ex.r
	tag := ex.opts.TagBase + c
	// Receive side: every rank's sends-map describes what it gets back.
	myData := ex.jv.Ranks[r.ID()].Data
	sends := ex.p.sendsAt(r.ID(), c)
	for i := range sends {
		so := &sends[i]
		ex.recvInto(sh, ex.p.aggRanks[so.agg], tag, myData, ex.p.segsOf(so), so.total)
	}
	// Send side (aggregators): pack each destination's window segments.
	if ex.aggIdx >= 0 {
		recvs := ex.p.recvsAt(ex.aggIdx, c)
		for i := range recvs {
			ro := &recvs[i]
			pl := ex.payload(ex.bufs[slot], ex.p.rsegsOf(ro), ro.total)
			sh.reqs = append(sh.reqs, r.Isend(int(ro.src), tag, pl))
			ex.res.BytesSent += ro.total
		}
	}
	ex.res.ShuffleTime += ex.r.Now() - sh.initAt
}

// Wait completes the scatter and unpacks staged receives into the
// rank's view buffer.
func (s *scatterStage) Wait(slot int) {
	ex := (*exec)(s)
	sh := &ex.shState[slot]
	if !sh.open {
		return
	}
	t0 := ex.r.Now()
	ex.r.Wait(sh.reqs...)
	ex.unpack(sh, ex.jv.Ranks[ex.r.ID()].Data)
	ex.closeSlot(sh, t0)
}

func (s *scatterStage) Sync(c, slot int) {
	s.Init(c, slot)
	s.Wait(slot)
}
