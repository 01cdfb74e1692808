package fcoll_test

import (
	"strings"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/trace"
)

// tracedRun executes one collective write with a probe attached and
// returns the trace view of its phase events.
func tracedRun(t *testing.T, algo fcoll.Algorithm) *trace.Recorder {
	t.Helper()
	rg := newRig(t, 6, 2, 71)
	jv := blockView(t, 6, 128<<10, false, 0)
	p := probe.New()
	rg.file.SetCollectiveOptions(fcoll.Options{
		Algorithm:  algo,
		BufferSize: 64 << 10,
		Observers:  []fcoll.Observer{{Probe: p}},
	})
	rg.w.Launch(func(r *mpi.Rank) {
		if _, err := rg.file.WriteAll(r, jv); err != nil {
			t.Errorf("%v", err)
		}
	})
	rg.k.Run()
	tr := trace.New()
	fcoll.AppendTrace(tr, p.Events())
	return tr
}

// TestTraceProvesOverlap is the semantic heart of the reproduction: the
// paper's overlap algorithms must actually run shuffle and write phases
// concurrently, far more than the strictly-alternating baseline. The
// trace makes that directly measurable.
func TestTraceProvesOverlap(t *testing.T) {
	// Restrict to aggregator ranks: non-aggregators' shuffle spans are
	// dominated by waiting for the aggregators, which would count as
	// co-occurrence without representing overlapped work.
	aggOnly := func(tr *trace.Recorder) *trace.Recorder {
		writers := map[int]bool{}
		for _, s := range tr.Spans {
			if s.Phase == trace.PhaseWrite {
				writers[s.Rank] = true
			}
		}
		return tr.Filter(func(s trace.Span) bool { return writers[s.Rank] })
	}
	base := aggOnly(tracedRun(t, fcoll.NoOverlap))
	over := aggOnly(tracedRun(t, fcoll.WriteOverlap))

	// Self-overlap: the same rank simultaneously in shuffle and write.
	selfOverlap := func(tr *trace.Recorder) (total sim.Time) {
		for _, r := range tr.Ranks() {
			r := r
			one := tr.Filter(func(s trace.Span) bool { return s.Rank == r })
			total += one.Overlap(trace.PhaseShuffle, trace.PhaseWrite)
		}
		return total
	}

	// The baseline strictly alternates per aggregator: no rank ever
	// shuffles while its own write is in flight.
	if got := selfOverlap(base); got != 0 {
		t.Fatalf("no-overlap baseline has per-rank overlap %v, want 0", got)
	}
	// Write-overlap must realise a large share of the hideable window
	// per aggregator.
	overSelf := selfOverlap(over)
	bound := over.MergedTotal(trace.PhaseShuffle)
	if w := over.MergedTotal(trace.PhaseWrite); w < bound {
		bound = w
	}
	if bound <= 0 {
		t.Fatal("degenerate trace")
	}
	if float64(overSelf) < 0.3*float64(bound) {
		t.Fatalf("write-overlap realises only %v of the %v hideable window", overSelf, bound)
	}
}

func TestTraceTimelineRenders(t *testing.T) {
	tr := tracedRun(t, fcoll.WriteComm2Overlap)
	out := tr.Timeline(60)
	if !strings.Contains(out, "rank") || !strings.Contains(out, "legend") {
		t.Fatalf("timeline output malformed:\n%s", out)
	}
	// Only the aggregator ranks write; at 6 ranks / 2 per node there
	// are 3 aggregators, and every rank shuffles.
	if got := len(tr.Ranks()); got != 6 {
		t.Fatalf("traced ranks = %d, want 6", got)
	}
	var writers int
	seen := map[int]bool{}
	for _, s := range tr.Spans {
		if s.Phase == trace.PhaseWrite && !seen[s.Rank] {
			seen[s.Rank] = true
			writers++
		}
	}
	if writers != 3 {
		t.Fatalf("writing ranks = %d, want 3 aggregators", writers)
	}
}

// TestTraceReadPath checks read spans appear for collective reads.
func TestTraceReadPath(t *testing.T) {
	rg := newRig(t, 4, 2, 73)
	jv := blockView(t, 4, 64<<10, false, 0)
	p := probe.New()
	rg.file.SetCollectiveOptions(fcoll.Options{
		Algorithm:  fcoll.WriteOverlap, // read-ahead dual
		BufferSize: 32 << 10,
		Observers:  []fcoll.Observer{{Probe: p}},
	})
	rg.w.Launch(func(r *mpi.Rank) {
		if _, err := rg.file.ReadAll(r, jv); err != nil {
			t.Errorf("%v", err)
		}
	})
	rg.k.Run()
	tr := trace.New()
	fcoll.AppendTrace(tr, p.Events())
	if tr.PhaseTotal(trace.PhaseRead) <= 0 {
		t.Fatal("no read spans recorded")
	}
	if tr.PhaseTotal(trace.PhaseShuffle) <= 0 {
		t.Fatal("no scatter spans recorded")
	}
	// Read-ahead must overlap reads with scatters.
	if ov := tr.Overlap(trace.PhaseRead, trace.PhaseShuffle); ov <= 0 {
		t.Fatal("read-ahead produced no read/scatter overlap")
	}
}
