package fcoll

import "fmt"

// Stage is one of the two stages of a collective's cycle pipeline, with
// its in-flight state kept per sub-buffer slot (0 or 1). The fill stage
// moves cycle c's data into a slot and the drain stage moves it out: a
// collective write fills by shuffling and drains by writing the file, a
// collective read fills by reading the file and drains by scattering.
type Stage interface {
	// Init starts cycle c's operation on slot; Wait completes the slot's
	// in-flight operation and is a no-op when the slot has none.
	Init(c, slot int)
	Wait(slot int)
	// Sync runs cycle c's operation on slot to completion: Init then
	// Wait for a communication stage, the blocking POSIX call (the rank
	// leaves the MPI library) for a file I/O stage.
	Sync(c, slot int)
}

// Cycles is the substrate the overlap algorithms drive: one rank's (or
// one bundled aggregator's) two pipeline stages. The exact executor
// implements it per rank over the simulated MPI library, for writes and
// reads; the bundled cohort executor (internal/exp) implements it per
// aggregator over modelled collectives. Each algorithm is therefore
// written once, in Drive, for all of them.
type Cycles interface {
	// NCycles is the collective's cycle count (at least one).
	NCycles() int
	Fill() Stage
	Drain() Stage
}

// Direction is a collective's data direction. Drive learns one fact from
// it: which of the two stages does the file I/O.
type Direction int

const (
	// Write fills by shuffling and drains by writing the file.
	Write Direction = iota
	// Read fills by reading the file and drains by scattering.
	Read
)

func (d Direction) String() string {
	if d == Read {
		return "read"
	}
	return "write"
}

// Drive runs algorithm alg's cycle schedule on cy. The paper's
// algorithms name which role is non-blocking, communication or file
// I/O; the direction maps that role to a stage (see DESIGN.md §4):
//
//	write CommOverlap, read WriteOverlap  -> driveAsyncFill  (Algorithm 1's shape)
//	write WriteOverlap, read CommOverlap  -> driveAsyncDrain (Algorithm 2's shape)
//
// Where Algorithms 3 and 4 can post two operations at the same point,
// they post the I/O stage's first.
func Drive(alg Algorithm, dir Direction, cy Cycles) error {
	ioFill := dir == Read
	n, fill, drain := cy.NCycles(), cy.Fill(), cy.Drain()
	switch alg {
	case NoOverlap:
		// The original two-phase algorithm: one full-size collective
		// buffer, both stages blocking, strictly alternating.
		for c := 0; c < n; c++ {
			fill.Sync(c, 0)
			drain.Sync(c, 0)
		}
	case CommOverlap, WriteOverlap:
		if (alg == WriteOverlap) == ioFill {
			driveAsyncFill(n, fill, drain)
		} else {
			driveAsyncDrain(n, fill, drain)
		}
	case WriteCommOverlap:
		driveBothAsync(n, fill, drain, ioFill)
	case WriteComm2Overlap:
		fill.Init(0, 0)
		drivePipelined(n, fill, drain, ioFill)
	default:
		return fmt.Errorf("fcoll: unknown algorithm %v", alg)
	}
	return nil
}

// driveAsyncFill is Algorithm 1's shape: non-blocking fills over two
// sub-buffers, blocking drains. Cycle i+1 fills in the background while
// cycle i drains. For a write the fill is the shuffle, and the
// synchronous write keeps the aggregator outside the MPI library, so
// background progress is limited (the effect §III-A.1 discusses); for a
// read the fill is the OS read-ahead of view-based collective I/O.
func driveAsyncFill(n int, fill, drain Stage) {
	p1, p2 := 0, 1
	fill.Init(0, p1)
	for i := 1; i < n; i++ {
		fill.Init(i, p2)
		fill.Wait(p1)
		drain.Sync(i-1, p1)
		p1, p2 = p2, p1
	}
	fill.Wait(p1)
	drain.Sync(n-1, p1)
}

// driveAsyncDrain is Algorithm 2's shape: blocking fills, non-blocking
// drains. While a write's aggregator shuffles cycle i+1 (inside MPI),
// the OS progresses cycle i's aio write; a read's scatter of cycle i
// runs while cycle i+1 is read.
//
// The paper's pseudocode line 11 waits only on p2; that leaks the final
// drain when NumberOfCycles is odd, so we wait both slots (see
// DESIGN.md §4).
func driveAsyncDrain(n int, fill, drain Stage) {
	p1, p2 := 0, 1
	fill.Sync(0, p1)
	drain.Init(0, p1)
	for i := 1; i < n; i++ {
		fill.Sync(i, p2)
		drain.Init(i, p2)
		drain.Wait(p1)
		p1, p2 = p2, p1
	}
	drain.Wait(p1)
	drain.Wait(p2)
}

// driveBothAsync is Algorithm 3: both stages non-blocking; each
// iteration starts the drain of the previous cycle and the fill of the
// next, then waits for both (wait_all, inside MPI throughout). The I/O
// stage's operation is posted first and the communication stage's is
// waited first.
func driveBothAsync(n int, fill, drain Stage, ioFill bool) {
	p1, p2 := 0, 1
	fill.Sync(0, p1)
	for c := 1; c < n; c++ {
		if ioFill {
			fill.Init(c, p2)
			drain.Init(c-1, p1)
			drain.Wait(p1)
			fill.Wait(p2)
		} else {
			drain.Init(c-1, p1)
			fill.Init(c, p2)
			fill.Wait(p2)
			drain.Wait(p1)
		}
		p1, p2 = p2, p1
	}
	drain.Init(n-1, p1)
	drain.Wait(p1)
}

// drivePipelined is Algorithm 4, entered with cycle 0's fill already
// started in slot 0: each completed non-blocking operation is
// immediately followed by posting its successor, one cycle per step.
// When cycle c-1's fill completes, two posts become possible: cycle
// c-1's drain, and cycle c's fill into slot c%2 once that slot's drain
// is waited. The I/O stage's post goes first. For a write this is the
// per-cycle order write_init, write_wait on the freed buffer,
// shuffle_init, shuffle_wait — the paper's lines 6–13 collapsed to one
// cycle per step (the printed pseudocode's two-cycle unrolling contains
// typos; see DESIGN.md §4).
func drivePipelined(n int, fill, drain Stage, ioFill bool) {
	fill.Wait(0)
	for c := 1; c < n; c++ {
		s := c % 2
		if ioFill {
			drain.Wait(s)
			fill.Init(c, s)
			drain.Init(c-1, 1-s)
		} else {
			drain.Init(c-1, 1-s)
			drain.Wait(s)
			fill.Init(c, s)
		}
		fill.Wait(s)
	}
	drain.Init(n-1, (n-1)%2)
	drain.Wait(0)
	drain.Wait(1)
}
