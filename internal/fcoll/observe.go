package fcoll

import (
	"collio/internal/metrics"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/trace"
)

// Observer is the collective engine's one emission path for phase
// spans and cycle marks. Every executor — the exact write and read
// engines and the bundled cohort executor (internal/exp) — reports
// through it, so the shared rules live here only: zero-length spans are
// dropped, each phase cause feeds its metrics series, and a write
// span's byte count drives the collective-buffer occupancy gauge. The
// probe's KindPhase events are the record; a phase trace is a view of
// them (AppendTrace).
//
// Both sinks are optional and nil-safe; the zero Observer records
// nothing. Probe should also be attached to the world, network and file
// system when a full event stream is wanted (exp.wireSinks wires them).
type Observer struct {
	Probe   *probe.Probe
	Metrics *metrics.Metrics
}

// On reports whether any sink is attached. Sites that must allocate to
// observe (a completion closure) check it first, so the unobserved hot
// path allocates nothing.
func (o Observer) On() bool { return o.Probe != nil || o.Metrics != nil }

// Phase records rank's [start, end) interval in the phase named by
// cause, during cycle (-1 outside the cycle loop). bytes > 0 is the
// collective-buffer occupancy held over the interval: +bytes at start,
// -bytes at end on the fcoll.buf_bytes gauge.
func (o Observer) Phase(cause probe.Cause, rank, cycle int, start, end sim.Time, bytes int64) {
	m := o.Metrics
	if m != nil && bytes != 0 {
		g := m.Gauge(metrics.BufBytes, metrics.ModeDelta)
		g.Add(start, bytes)
		g.Add(end, -bytes)
	}
	if end <= start {
		return
	}
	o.Probe.Emit(probe.Event{
		At: start, Dur: end - start, Layer: probe.LayerFcoll,
		Kind: probe.KindPhase, Cause: cause, Rank: rank, Peer: -1, Cycle: cycle,
	})
	if m != nil {
		name := phaseName(cause)
		m.Gauge(metrics.PhaseRank(name), metrics.ModeSum).AddSpan(start, end)
		m.Hist(metrics.PhaseHist(name)).Record(int64(end - start))
	}
}

// Cycle marks rank opening cycle c on sub-buffer slot at time at: the
// per-cycle size exchange that follows is the de-facto global
// synchronisation that frames each cycle.
func (o Observer) Cycle(rank, c, slot int, at sim.Time) {
	if o.Probe == nil {
		return
	}
	o.Probe.Emit(probe.Event{
		At: at, Layer: probe.LayerFcoll, Kind: probe.KindCycle,
		Rank: rank, Peer: -1, Cycle: c, V: int64(slot),
	})
}

// CollStats is one rank's accounting of one collective, as CollOp
// records it.
type CollStats struct {
	Start, End sim.Time
	Cycles     int
	Shuffled   int64 // bytes the rank sent into the shuffle
	Written    int64 // bytes the rank moved to or from the file
	// Size is the KindCollOp span's byte count: Written on the exact
	// executors, the rank's running total over the run's collectives on
	// the bundled one.
	Size int64
}

// CollOp records the end of rank's collective over view jv in direction
// dir: one KindCollOp span and, for a write, the byte-conservation
// counters — shuffled, written and user-view bytes per rank, plus the
// cycle count once (from rank 0). Reads skip the counters; their pinned
// counter digests hold that. Exact ranks call it as their collective
// returns, the bundled executor for every rank after its run.
func (o Observer) CollOp(jv *JobView, dir Direction, rank int, s CollStats) {
	p := o.Probe
	if p == nil {
		return
	}
	cause := probe.CauseCollWrite
	if dir == Read {
		cause = probe.CauseCollRead
	}
	p.Emit(probe.Event{
		At: s.Start, Dur: s.End - s.Start, Layer: probe.LayerFcoll,
		Kind: probe.KindCollOp, Cause: cause,
		Rank: rank, Peer: -1, Cycle: s.Cycles, Size: s.Size,
	})
	if dir == Read {
		return
	}
	ctr := p.Counters()
	ctr.AddRank(rank, probe.CtrCollShufBytes, s.Shuffled)
	ctr.AddRank(rank, probe.CtrCollWriteBytes, s.Written)
	var user int64
	for _, e := range jv.Ranks[rank].Extents {
		user += e.Len
	}
	ctr.AddRank(rank, probe.CtrCollUserBytes, user)
	if rank == 0 {
		ctr.Add(probe.CtrCollCycles, int64(s.Cycles))
	}
}

// phaseName is the series name of a phase cause, as embedded by
// metrics.PhaseRank/PhaseHist. For shuffle, write, read and sync it is
// also the trace phase label.
func phaseName(cause probe.Cause) string {
	if cause == probe.CausePreCombine {
		return "precombine"
	}
	return cause.String()
}

// AppendTrace appends to tr the phase-trace view of events: every fcoll
// KindPhase span of a traced phase (shuffle, write, read, sync), in
// event order. Pre-combine spans stay out of the trace; they are a
// sub-phase of the leader's shuffle.
func AppendTrace(tr *trace.Recorder, events []probe.Event) {
	if tr == nil {
		return
	}
	for _, e := range events {
		if e.Layer != probe.LayerFcoll || e.Kind != probe.KindPhase {
			continue
		}
		switch e.Cause {
		case probe.CauseShuffle, probe.CauseWrite, probe.CauseRead, probe.CauseSync:
			tr.Record(e.Rank, e.Cause.String(), e.Cycle, e.At, e.End())
		}
	}
}
