// Fixtures for the maporder analyzer: map-iteration-order hazards in a
// deterministic-zone package (the import path contains internal/fcoll).
// This file holds the order-dependent CALLS — scheduling, probe/trace
// emission, MPI initiation — directly or one call level deep; the
// order-dependent WRITES are in the sim, probe and metrics fixtures.
package fcoll

import (
	"sort"

	"mpi"
	"probe"
	"sim"
	"trace"
)

// plan mirrors an arena-backed aggregation plan (PR-4 shape).
type plan struct {
	offs  []int64
	sizes []int64
}

func (p *plan) addChunk(off, size int64) {
	p.offs = append(p.offs, off)
	p.sizes = append(p.sizes, size)
}

func (p *plan) total() int64 {
	var t int64
	for _, s := range p.sizes {
		t += s
	}
	return t
}

// --- flagged: direct ordered-stream calls inside range over map ---

func badEmitPerMapEntry(pr *probe.Probe, sizes map[int]int64) {
	for rank, sz := range sizes {
		pr.Emit(probe.Event{Rank: rank, Dur: sim.Time(sz)}) // want `call to probe\.Emit inside range over map`
	}
}

func badSchedulePerMapEntry(k *sim.Kernel, delays map[int]sim.Time) {
	for _, d := range delays {
		k.After(d, func() {}) // want `call to sim\.After inside range over map`
	}
}

func badForwardPerMapEntry(done map[int]*sim.Future, out *sim.Future) {
	for _, f := range done {
		f.Then(out) // want `call to sim\.Then inside range over map`
	}
}

func badCompleteAfterPerMapEntry(k *sim.Kernel, futs map[int]*sim.Future) {
	for _, f := range futs {
		k.CompleteAfter(0, f) // want `call to sim\.CompleteAfter inside range over map`
	}
}

func badIsendPerMapEntry(r *mpi.Rank, peers map[int]int64) {
	for dst, sz := range peers {
		if sz == 0 {
			continue
		}
		r.Isend(dst, 0, mpi.Symbolic(sz)) // want `call to mpi\.Isend inside range over map`
	}
}

func badTraceInNestedBranch(tr *trace.Recorder, phases map[string]sim.Time) {
	for name, end := range phases {
		switch {
		case end > 0:
			tr.Record(0, name, 0, 0, end) // want `call to trace\.Record inside range over map`
		default:
		}
	}
}

// --- flagged: hazard one call level deep ---

func badArenaAppendViaHelper(p *plan, chunks map[int64]int64) {
	for off, sz := range chunks {
		p.addChunk(off, sz) // want `call to addChunk inside range over map reaches an append to p\.offs`
	}
}

func emitDone(pr *probe.Probe, rank int) {
	pr.Emit(probe.Event{Rank: rank})
}

func badEmissionViaHelper(pr *probe.Probe, ranks map[int]bool) {
	for rank := range ranks {
		emitDone(pr, rank) // want `call to emitDone inside range over map reaches probe\.Emit`
	}
}

// --- clean: collect-then-sort re-establishes a deterministic order ---

func goodSortedEmission(pr *probe.Probe, sizes map[int]int64) {
	ranks := make([]int, 0, len(sizes))
	for rank := range sizes {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		pr.Emit(probe.Event{Rank: rank, Dur: sim.Time(sizes[rank])})
	}
}

// --- clean: commutative counter sinks are order-independent ---

func goodCommutativeCounters(g *probe.Registry, sizes map[int]int64) {
	for rank, sz := range sizes {
		g.AddRank(rank, "bytes", sz)
	}
}

// --- clean: range over a slice is ordered ---

func goodSliceDrivenSchedule(k *sim.Kernel, delays []sim.Time) {
	for _, d := range delays {
		k.After(d, func() {})
	}
}

// --- clean: pure computation over the map commutes ---

func goodPureReduction(p *plan, chunks map[int64]int64) int64 {
	var n int64
	for _, sz := range chunks {
		n += sz
	}
	return n + p.total()
}
