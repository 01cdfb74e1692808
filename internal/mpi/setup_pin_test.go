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
// The allgatherv is Bruck's: np 13's last exit fell from 41.070 µs
// (the ring) to 33.695 µs and its sends from 204 to 100, with the bytes
// unchanged.
func TestSetupCollectivesPinned(t *testing.T) {
	want := map[int]setupPin{
		1:  {[]sim.Time{900}, 0, 0, 0x5257528f35885a6b},
		2:  {[]sim.Time{6118, 5908}, 6, 112, 0x6cdf0350477358d3},
		3:  {[]sim.Time{10322, 10530, 10367}, 14, 352, 0xa083e0863cdb6d63},
		5:  {[]sim.Time{18354, 17222, 17943, 18111, 18930}, 31, 1408, 0x2c277f5c14947e5f},
		7:  {[]sim.Time{22091, 21894, 22054, 21888, 23739, 23989, 23840}, 45, 3552, 0xcc78f4736a1fa230},
		13: {[]sim.Time{31184, 31456, 32201, 32413, 32663, 31498, 32228, 32519, 32770, 31081, 33695, 33173, 33461}, 100, 20352, 0x18247bebd3376e5},
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

// TestSetupExchangeSends pins the message count of the setup's view
// exchange: the Bruck allgatherv sends P·⌈log2 P⌉ messages, one per
// rank per round, where the ring it replaced sent P(P−1) (9,120 at
// np 96, 1,047,552 at np 1024).
func TestSetupExchangeSends(t *testing.T) {
	want := map[int]int{2: 2, 3: 6, 5: 15, 96: 672, 1024: 10240}
	for _, np := range []int{2, 3, 5, 96, 1024} {
		k, w := testWorld(t, np, 4, 1, nil)
		p := probe.New()
		w.SetProbe(0, p)
		w.Launch(func(r *Rank) {
			r.Collective(Coll{Op: probe.CauseAllgatherv, Block: func(i int) int64 { return 16 * int64(1+i%4) }})
		})
		k.Run()
		isends := 0
		for _, ev := range p.Events() {
			if ev.Layer == probe.LayerMPI && ev.Kind == probe.KindIsend {
				isends++
			}
		}
		if isends != want[np] {
			t.Errorf("np=%d: the allgatherv sent %d messages, want %d", np, isends, want[np])
		}
	}
}
