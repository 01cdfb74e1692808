package fcoll

import (
	"fmt"

	"collio/internal/sim"
)

// Cycles is the per-cycle substrate the overlap algorithms drive: the
// operations one rank's cycle loop issues, with in-flight shuffle state
// keyed by sub-buffer slot (0 or 1). The exact executor implements it
// per rank over the simulated MPI library; the bundled cohort executor
// (internal/exp) implements it per aggregator over modelled collectives.
// Each algorithm is therefore written once, in Drive, for both.
type Cycles interface {
	// NCycles is the collective's cycle count (at least one).
	NCycles() int
	// ShuffleInit starts cycle c's shuffle into slot; ShuffleWait
	// completes the slot's in-flight shuffle.
	ShuffleInit(c, slot int)
	ShuffleWait(slot int)
	// WriteSync flushes cycle c's window from slot synchronously.
	// WriteInit starts the flush asynchronously and returns its
	// completion future (nil when nothing is written), which WriteWait
	// completes.
	WriteSync(c, slot int)
	WriteInit(c, slot int) *sim.Future
	WriteWait(f *sim.Future)

	// The dataflow scheduler's operations. ShuffleFuture returns the
	// completion future of the slot's in-flight shuffle, or nil when the
	// substrate cannot observe shuffle completion passively (the
	// one-sided primitives); WaitAny blocks until one of futs completes
	// and returns its index; ShuffleReap finishes a shuffle whose future
	// has completed.
	ShuffleFuture(slot int) *sim.Future
	WaitAny(futs ...*sim.Future) int
	ShuffleReap(slot int)
}

// Drive runs algorithm alg's cycle schedule on cy.
func Drive(alg Algorithm, cy Cycles) error {
	switch alg {
	case NoOverlap:
		driveNoOverlap(cy)
	case CommOverlap:
		driveCommOverlap(cy)
	case WriteOverlap:
		driveWriteOverlap(cy)
	case WriteCommOverlap:
		driveWriteCommOverlap(cy)
	case WriteComm2Overlap:
		cy.ShuffleInit(0, 0)
		driveWriteComm2(cy)
	case DataflowOverlap:
		driveDataflow(cy)
	default:
		return fmt.Errorf("fcoll: unknown algorithm %v", alg)
	}
	return nil
}

// shuffleBlocking is the blocking shuffle used by the write-overlap
// family.
func shuffleBlocking(cy Cycles, c, slot int) {
	cy.ShuffleInit(c, slot)
	cy.ShuffleWait(slot)
}

// driveNoOverlap is the original two-phase algorithm: one full-size
// collective buffer, strictly alternating shuffle and synchronous write.
func driveNoOverlap(cy Cycles) {
	n := cy.NCycles()
	for c := 0; c < n; c++ {
		shuffleBlocking(cy, c, 0)
		cy.WriteSync(c, 0)
	}
}

// driveCommOverlap is Algorithm 1: non-blocking shuffles over two
// sub-buffers, blocking writes. The shuffle of cycle i+1 runs in the
// background while cycle i is written — but the synchronous write keeps
// the aggregator outside the MPI library, so background progress is
// limited (the effect §III-A.1 discusses).
func driveCommOverlap(cy Cycles) {
	n := cy.NCycles()
	p1, p2 := 0, 1
	cy.ShuffleInit(0, p1)
	for i := 1; i < n; i++ {
		cy.ShuffleInit(i, p2)
		cy.ShuffleWait(p1)
		cy.WriteSync(i-1, p1)
		p1, p2 = p2, p1
	}
	cy.ShuffleWait(p1)
	cy.WriteSync(n-1, p1)
}

// driveWriteOverlap is Algorithm 2: blocking shuffles, asynchronous
// writes. While the aggregator shuffles cycle i+1 (inside MPI), the OS
// progresses cycle i's aio write.
//
// The paper's pseudocode line 11 waits only on p2; that leaks the final
// write when NumberOfCycles is odd, so we wait whichever write is still
// outstanding (see DESIGN.md §4).
func driveWriteOverlap(cy Cycles) {
	n := cy.NCycles()
	p1, p2 := 0, 1
	shuffleBlocking(cy, 0, p1)
	var w [2]*sim.Future
	w[p1] = cy.WriteInit(0, p1)
	for i := 1; i < n; i++ {
		shuffleBlocking(cy, i, p2)
		w[p2] = cy.WriteInit(i, p2)
		cy.WriteWait(w[p1])
		w[p1] = nil
		p1, p2 = p2, p1
	}
	cy.WriteWait(w[p1])
	cy.WriteWait(w[p2])
}

// driveWriteCommOverlap is Algorithm 3: both phases non-blocking; each
// iteration starts the write of the previous cycle and the shuffle of
// the next, then waits for both.
func driveWriteCommOverlap(cy Cycles) {
	n := cy.NCycles()
	p1, p2 := 0, 1
	shuffleBlocking(cy, 0, p1)
	for c := 1; c < n; c++ {
		w := cy.WriteInit(c-1, p1)
		cy.ShuffleInit(c, p2)
		// wait_all(p1, p2): complete the shuffle and the write
		// together, inside MPI throughout.
		cy.ShuffleWait(p2)
		cy.WriteWait(w)
		p1, p2 = p2, p1
	}
	cy.WriteWait(cy.WriteInit(n-1, p1))
}

// driveWriteComm2 is Algorithm 4, entered with cycle 0's shuffle already
// started in slot 0: each completed non-blocking operation is
// immediately followed by posting its successor. Per cycle the posting
// order is write_wait on the freed buffer, shuffle_init, shuffle_wait,
// write_init — the paper's lines 6–13 collapsed to one cycle per step
// (the printed pseudocode's two-cycle unrolling contains typos; see
// DESIGN.md §4).
func driveWriteComm2(cy Cycles) {
	n := cy.NCycles()
	var w [2]*sim.Future
	cy.ShuffleWait(0)
	w[0] = cy.WriteInit(0, 0)
	for c := 1; c < n; c++ {
		s := c % 2
		cy.WriteWait(w[s])
		w[s] = nil
		cy.ShuffleInit(c, s)
		cy.ShuffleWait(s)
		w[s] = cy.WriteInit(c, s)
	}
	cy.WriteWait(w[0])
	cy.WriteWait(w[1])
}

// driveDataflow is the extension scheduler (see DataflowOverlap): an
// event-driven loop that reacts to whichever non-blocking operation
// completes first. A substrate without a shuffle-completion future falls
// back to Algorithm 4's static order.
func driveDataflow(cy Cycles) {
	n := cy.NCycles()
	cy.ShuffleInit(0, 0)
	f := cy.ShuffleFuture(0)
	if f == nil {
		driveWriteComm2(cy)
		return
	}
	type bufState struct {
		cycle int
		shFut *sim.Future
		write *sim.Future
	}
	st := [2]bufState{{shFut: f}}
	next := 1 // next cycle to shuffle
	for {
		// Post shuffles on every free buffer first (follow-up-first
		// posting discipline).
		for s := 0; s < 2 && next < n; s++ {
			if st[s].shFut == nil && st[s].write == nil {
				cy.ShuffleInit(next, s)
				st[s].cycle, st[s].shFut = next, cy.ShuffleFuture(s)
				next++
			}
		}
		// Collect everything in flight.
		var futs []*sim.Future
		var what []int // slot*2 + (0 shuffle / 1 write)
		for s := 0; s < 2; s++ {
			if st[s].shFut != nil {
				futs = append(futs, st[s].shFut)
				what = append(what, s*2)
			}
			if st[s].write != nil {
				futs = append(futs, st[s].write)
				what = append(what, s*2+1)
			}
		}
		if len(futs) == 0 {
			break
		}
		idx := cy.WaitAny(futs...)
		s := what[idx] / 2
		if what[idx]%2 == 0 {
			// Shuffle done: finish it and immediately post the write.
			cy.ShuffleReap(s)
			st[s].write = cy.WriteInit(st[s].cycle, s)
			st[s].shFut = nil
		} else {
			// Write done: buffer is free for the next shuffle.
			st[s].write = nil
		}
	}
}
