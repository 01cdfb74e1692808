package fcoll

import (
	"fmt"
	"sort"

	"collio/internal/datatype"
	"collio/internal/mpi"
	"collio/internal/probe"
)

// RankView is one rank's file view for a collective write: the sorted
// file extents it will write and, in data mode, the bytes backing them
// (concatenated in extent order).
type RankView struct {
	Extents []datatype.Extent
	Data    []byte
}

// Size returns the total bytes this rank contributes.
func (v *RankView) Size() int64 { return datatype.TotalLen(v.Extents) }

// JobView is the collective's full access description: one view per
// rank. In the simulator the JobView is built host-side by the workload
// generator and shared by all ranks; the cost of exchanging the
// flattened-view metadata is still charged through real collectives
// during plan setup, as the vulcan component does.
type JobView struct {
	Ranks []RankView

	control   [2]Control // per Direction (controlOf)
	planCache map[planKey]*plan
}

// Control is the control traffic of one collective, stated once: exec
// runs it and the bundled executor charges its closed form.
type Control struct {
	Setup []mpi.Coll // plan establishment, in order
	Cycle mpi.Coll   // the per-cycle transfer-size exchange (§III-A)
	Final mpi.Coll   // the closing barrier
}

// Control returns the control traffic of a collective over jv in
// direction dir.
func (jv *JobView) Control(dir Direction) Control { return jv.control[dir] }

// controlOf lists the control collectives over jv per direction. Setup
// is the bounds agreement (min start / max end, one 2-value allreduce;
// a read skips it, as its cost model always has), then the
// flattened-view exchange: every rank's extent count (an allgather,
// charged as an allreduce over the P-vector) and 16 bytes per extent
// over a ring allgatherv (vulcan exchanges the per-process offset/length
// lists so every rank can compute identical send/receive maps). The
// shared plan already holds every value they would carry. Cycle is
// ROMIO/vulcan's MPI_Alltoall of send sizes at the start of every
// cycle: besides its cost, it makes each cycle a de-facto global
// synchronisation point, which is why the non-overlapping baseline's
// shuffle and file-access phases strictly alternate machine-wide.
func controlOf(jv *JobView) [2]Control {
	setup := []mpi.Coll{
		{Op: probe.CauseAllreduce, Bytes: 16},
		{Op: probe.CauseAllreduce, Bytes: 8 * int64(len(jv.Ranks))},
		{Op: probe.CauseAllgatherv, Block: func(i int) int64 { return 16 * int64(len(jv.Ranks[i].Extents)) }},
	}
	cycle, final := mpi.Coll{Op: probe.CauseAlltoall, Bytes: 8}, mpi.Coll{Op: probe.CauseBarrier}
	return [2]Control{Write: {setup, cycle, final}, Read: {setup[1:], cycle, final}}
}

type planKey struct {
	window      int64
	aggregators int
	layout      DomainLayout
	rpn         int   // node packing (affects aggregator selection)
	hierThr     int64 // hierarchical routing threshold; 0 = flat family
}

// NewJobView wraps per-rank views after validating them: extents must
// be sorted and non-overlapping per rank, must not overlap across ranks,
// and must be dense (no holes in the union) — the precondition of the
// dense two-phase write path this engine implements (all three paper
// benchmarks are dense).
func NewJobView(ranks []RankView) (*JobView, error) {
	type tagged struct {
		e    datatype.Extent
		rank int
	}
	var all []tagged
	for i := range ranks {
		if err := datatype.Validate(ranks[i].Extents); err != nil {
			return nil, fmt.Errorf("fcoll: rank %d view invalid: %w", i, err)
		}
		if ranks[i].Data != nil && int64(len(ranks[i].Data)) != ranks[i].Size() {
			return nil, fmt.Errorf("fcoll: rank %d data length %d != view size %d",
				i, len(ranks[i].Data), ranks[i].Size())
		}
		for _, e := range ranks[i].Extents {
			all = append(all, tagged{e, i})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("fcoll: empty job view")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.Off < all[j].e.Off })
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if cur.e.Off < prev.e.End() {
			return nil, fmt.Errorf("fcoll: ranks %d and %d overlap at offset %d",
				prev.rank, cur.rank, cur.e.Off)
		}
		if cur.e.Off > prev.e.End() {
			return nil, fmt.Errorf("fcoll: hole in collective view at [%d,%d) — dense views required",
				prev.e.End(), cur.e.Off)
		}
	}
	jv := &JobView{Ranks: ranks}
	jv.control = controlOf(jv)
	return jv, nil
}

// Bounds returns the first and one-past-last file offsets accessed.
func (jv *JobView) Bounds() (start, end int64) {
	start, end = int64(-1), 0
	for i := range jv.Ranks {
		for _, e := range jv.Ranks[i].Extents {
			if start < 0 || e.Off < start {
				start = e.Off
			}
			if e.End() > end {
				end = e.End()
			}
		}
	}
	return start, end
}

// TotalBytes returns the collective's total data volume.
func (jv *JobView) TotalBytes() int64 {
	var n int64
	for i := range jv.Ranks {
		n += jv.Ranks[i].Size()
	}
	return n
}

// DataMode reports whether every rank carries real bytes.
func (jv *JobView) DataMode() bool {
	for i := range jv.Ranks {
		if jv.Ranks[i].Data == nil && jv.Ranks[i].Size() > 0 {
			return false
		}
	}
	return true
}

// ExpectedFile assembles the byte image a correct collective write must
// produce (data mode only; verification helper).
func (jv *JobView) ExpectedFile() []byte {
	_, end := jv.Bounds()
	out := make([]byte, end)
	for i := range jv.Ranks {
		v := &jv.Ranks[i]
		var src int64
		for _, e := range v.Extents {
			copy(out[e.Off:e.End()], v.Data[src:src+e.Len])
			src += e.Len
		}
	}
	return out
}
