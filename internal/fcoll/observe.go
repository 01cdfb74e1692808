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
// system when a full event stream is wanted (exp.Execute wires them).
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
