package mpi

import (
	"fmt"
	"testing"

	"collio/internal/sim"
)

func TestBarrierReleasesAfterLastArrival(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		n := n
		t.Run(fmt.Sprintf("np=%d", n), func(t *testing.T) {
			k, w := testWorld(t, n, 4, 1, nil)
			slowest := sim.Time(n) * sim.Millisecond
			exits := make([]sim.Time, n)
			w.Launch(func(r *Rank) {
				r.Compute(sim.Time(r.ID()+1) * sim.Millisecond)
				r.Barrier()
				exits[r.ID()] = r.Now()
			})
			k.Run()
			for i, e := range exits {
				if e < slowest {
					t.Fatalf("rank %d left barrier at %v, before slowest arrival %v", i, e, slowest)
				}
			}
		})
	}
}

func TestBarrierSequenceDoesNotCrossTalk(t *testing.T) {
	k, w := testWorld(t, 5, 5, 1, nil)
	count := make([]int, 5)
	w.Launch(func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Barrier()
			count[r.ID()]++
		}
	})
	k.Run()
	for i, c := range count {
		if c != 10 {
			t.Fatalf("rank %d completed %d barriers, want 10", i, c)
		}
	}
}

func TestAllgathervSymbolic(t *testing.T) {
	k, w := testWorld(t, 4, 2, 1, nil)
	var elapsed sim.Time
	w.Launch(func(r *Rank) {
		r.AllgathervSync([]int64{1000, 1000, 1000, 1000})
		elapsed = r.Now()
	})
	k.Run()
	if elapsed == 0 {
		t.Fatal("allgatherv charged no time")
	}
}

// assertSynchronises checks that coll is a full synchronisation on np
// ranks: whichever rank enters last, no rank leaves before it entered.
// It proves that the collective's pattern connects every rank to every
// other.
func assertSynchronises(t *testing.T, np int, coll func(r *Rank)) {
	t.Helper()
	const slow = 10 * sim.Millisecond
	for late := 0; late < np; late++ {
		k, w := testWorld(t, np, 3, 1, nil)
		exits := make([]sim.Time, np)
		w.Launch(func(r *Rank) {
			if r.ID() == late {
				r.Compute(slow)
			}
			coll(r)
			exits[r.ID()] = r.Now()
		})
		k.Run()
		for i, e := range exits {
			if e < slow {
				t.Fatalf("rank %d left at %v, before rank %d entered at %v", i, e, late, slow)
			}
		}
	}
}

func TestAlltoallSynchronises(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 13} {
		t.Run(fmt.Sprintf("np=%d", n), func(t *testing.T) {
			assertSynchronises(t, n, func(r *Rank) { r.AlltoallSync(8) })
		})
	}
}

func TestAllreduceSyncSynchronises(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 7, 9, 16} {
		t.Run(fmt.Sprintf("np=%d", n), func(t *testing.T) {
			assertSynchronises(t, n, func(r *Rank) { r.AllreduceSync(16) })
		})
	}
}

func TestAllgathervSyncSynchronises(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 13} {
		t.Run(fmt.Sprintf("np=%d", n), func(t *testing.T) {
			sizes := make([]int64, n)
			for i := range sizes {
				sizes[i] = int64(3 + 2*i)
			}
			assertSynchronises(t, n, func(r *Rank) { r.AllgathervSync(sizes) })
		})
	}
}
