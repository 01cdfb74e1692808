package mpi

import (
	"fmt"
	"hash/fnv"
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
)

// setupPin is the pinned outcome of the collective-write plan-setup
// sequence on one world size.
type setupPin struct {
	exits      []sim.Time // each rank's exit instant
	isends     int        // probe KindIsend events
	isendBytes int64      // their summed payload sizes
	events     uint64     // FNV-1a over every MPI-layer probe event
}

// runSetupCollectives runs fcoll's plan-setup collectives on np ranks,
// 4 per node, with a small per-rank entry skew: the 2-value bounds
// allreduce, the extent-count allgather and an allgatherv where rank i
// contributes 16·(i+1) bytes.
func runSetupCollectives(t *testing.T, np int) setupPin {
	k, w := testWorld(t, np, 4, 1, nil)
	p := probe.New()
	w.SetProbe(0, p)
	exits := make([]sim.Time, np)
	w.Launch(func(r *Rank) {
		r.Compute(sim.Time(r.ID()*7%5) * sim.Microsecond)
		r.AllreduceSync(16)
		r.AllreduceSync(8 * int64(np))
		sizes := make([]int64, np)
		for i := range sizes {
			sizes[i] = 16 * int64(i+1)
		}
		r.AllgathervSync(sizes)
		exits[r.ID()] = r.Now()
	})
	k.Run()
	pin := setupPin{exits: exits}
	h := fnv.New64a()
	for _, ev := range p.Events() {
		if ev.Layer != probe.LayerMPI {
			continue
		}
		if ev.Kind == probe.KindIsend {
			pin.isends++
			pin.isendBytes += ev.Size
		}
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d\n", ev.At, ev.Dur, ev.Kind, ev.Cause, ev.Rank, ev.Peer, ev.Size, ev.V)
	}
	pin.events = h.Sum64()
	return pin
}

// TestSetupCollectivesPinned pins the simulated cost of the plan-setup
// collectives: exit instants, point-to-point message count and bytes,
// and the MPI-layer probe stream (tags, peers, sizes, span nesting).
// Any reimplementation of the collectives must reproduce these exactly.
func TestSetupCollectivesPinned(t *testing.T) {
	want := map[int]setupPin{
		1:  {[]sim.Time{900}, 0, 0, 0x5257528f35885a6b},
		2:  {[]sim.Time{6118, 5908}, 6, 112, 0x6cdf0350477358d3},
		3:  {[]sim.Time{10533, 10159, 10323}, 14, 352, 0xebb4952893376970},
		5:  {[]sim.Time{19130, 19160, 19370, 18220, 17195}, 36, 1408, 0x6fd3e38a0e0c395b},
		7:  {[]sim.Time{24146, 24186, 24396, 24499, 26438, 25840, 22217}, 66, 3552, 0x63d40ab44171b3ff},
		13: {[]sim.Time{38230, 38310, 38520, 38665, 40604, 40696, 40906, 38826, 40776, 40861, 41070, 39903, 36295}, 204, 20352, 0xeaa3fb5bf29d2e70},
	}
	for _, np := range []int{1, 2, 3, 5, 7, 13} {
		got, w := runSetupCollectives(t, np), want[np]
		if fmt.Sprint(got.exits) != fmt.Sprint(w.exits) {
			t.Errorf("np=%d: exits %v, want %v", np, got.exits, w.exits)
		}
		if got.isends != w.isends || got.isendBytes != w.isendBytes {
			t.Errorf("np=%d: %d isends / %d B, want %d / %d B", np, got.isends, got.isendBytes, w.isends, w.isendBytes)
		}
		if got.events != w.events {
			t.Errorf("np=%d: MPI event digest %#x, want %#x", np, got.events, w.events)
		}
	}
}
