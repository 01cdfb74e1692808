// Package fcoll implements the two-phase collective write algorithm —
// the `vulcan` fcoll component of OMPIO that the reproduced paper
// modifies — including the paper's four cycle-overlap algorithms and
// three shuffle data-transfer primitives.
//
// A collective write proceeds in cycles. In each cycle every rank ships
// the part of its data that falls into each aggregator's current file
// window (the shuffle phase), and each aggregator flushes its collective
// buffer to the file system (the file access phase). The paper's
// contribution is the set of strategies for overlapping the shuffle and
// file-access phases of consecutive cycles using two half-sized
// sub-buffers, and the choice of shuffle primitive (non-blocking
// two-sided, one-sided with fence synchronisation, one-sided with
// lock/unlock synchronisation).
package fcoll

import (
	"fmt"

	"collio/internal/mpi"
	"collio/internal/sim"
)

// Algorithm selects the cycle-overlap strategy (paper §III-A).
type Algorithm int

const (
	// NoOverlap is the original two-phase algorithm: one full-size
	// collective buffer, shuffle and write strictly alternating.
	NoOverlap Algorithm = iota
	// CommOverlap (Algorithm 1) uses non-blocking shuffles over two
	// sub-buffers with blocking writes.
	CommOverlap
	// WriteOverlap (Algorithm 2) uses blocking shuffles with
	// asynchronous writes.
	WriteOverlap
	// WriteCommOverlap (Algorithm 3) makes both phases non-blocking and
	// waits for both at once each cycle.
	WriteCommOverlap
	// WriteComm2Overlap (Algorithm 4) is the revised variant that
	// avoids the shuffle and write completing at the same time: each
	// completed non-blocking operation is immediately followed by
	// posting its successor, one cycle per step.
	WriteComm2Overlap
)

// Algorithms lists the paper's overlap strategies in paper order.
var Algorithms = []Algorithm{NoOverlap, CommOverlap, WriteOverlap, WriteCommOverlap, WriteComm2Overlap}

func (a Algorithm) String() string {
	switch a {
	case NoOverlap:
		return "no-overlap"
	case CommOverlap:
		return "comm-overlap"
	case WriteOverlap:
		return "write-overlap"
	case WriteCommOverlap:
		return "write-comm-overlap"
	case WriteComm2Overlap:
		return "write-comm-2-overlap"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// UsesAsyncWrite reports whether the algorithm issues asynchronous file
// writes (the property Table I's 71% observation groups by).
func (a Algorithm) UsesAsyncWrite() bool {
	switch a {
	case WriteOverlap, WriteCommOverlap, WriteComm2Overlap:
		return true
	}
	return false
}

// Primitive selects the shuffle data-transfer implementation (§III-B).
type Primitive int

const (
	// TwoSided uses non-blocking Isend/Irecv pairs with message packing.
	TwoSided Primitive = iota
	// OneSidedFence uses MPI_Put with MPI_Win_fence (active-target)
	// synchronisation.
	OneSidedFence
	// OneSidedLock uses MPI_Put with MPI_Win_lock/unlock
	// (passive-target) synchronisation plus the barriers required for
	// correctness (§III-B.2b).
	OneSidedLock
	// OneSidedPSCW is an extension beyond the paper: generalised
	// active-target synchronisation (MPI_Win_post/start/complete/wait)
	// where only the communicating pairs synchronise each cycle — the
	// fence's semantics without its full-collective cost.
	OneSidedPSCW
)

// Primitives lists the paper's shuffle primitives in paper order.
var Primitives = []Primitive{TwoSided, OneSidedFence, OneSidedLock}

// AllPrimitives additionally includes the extension primitives.
var AllPrimitives = append(append([]Primitive(nil), Primitives...), OneSidedPSCW)

func (p Primitive) String() string {
	switch p {
	case TwoSided:
		return "two-sided"
	case OneSidedFence:
		return "one-sided-fence"
	case OneSidedLock:
		return "one-sided-lock"
	case OneSidedPSCW:
		return "one-sided-pscw"
	}
	return fmt.Sprintf("Primitive(%d)", int(p))
}

// DomainLayout selects how file offsets map onto aggregator cycle
// windows.
type DomainLayout int

const (
	// ContiguousDomains gives each aggregator one contiguous file
	// domain (the classic ROMIO/vulcan partition and the default).
	// Per-cycle sender sets are spread over the whole machine, which
	// balances NIC load.
	ContiguousDomains DomainLayout = iota
	// RoundRobinWindows assigns stripe-aligned windows to aggregators
	// round-robin: global window g belongs to aggregator g%na in cycle
	// g/na (cf. the round-robin aggregator distribution of Tsujita et
	// al. cited in §II). It keeps aggregators in per-cycle lockstep but
	// concentrates each cycle's senders on few nodes; kept as an
	// ablation axis (see the ablation benchmarks).
	RoundRobinWindows
)

func (d DomainLayout) String() string {
	switch d {
	case RoundRobinWindows:
		return "round-robin-windows"
	case ContiguousDomains:
		return "contiguous-domains"
	}
	return fmt.Sprintf("DomainLayout(%d)", int(d))
}

// Options configure one collective write.
type Options struct {
	// Algorithm is the overlap strategy.
	Algorithm Algorithm
	// Primitive is the shuffle transfer implementation.
	Primitive Primitive
	// BufferSize is the collective buffer per aggregator (32 MiB in the
	// paper's ompio default). Overlap algorithms split it into two
	// sub-buffers of half this size.
	BufferSize int64
	// Aggregators fixes the aggregator count; 0 selects one aggregator
	// per compute node (the shape of ompio's automatic selection).
	Aggregators int
	// Hierarchical enables the two-level algorithm family: node-aware
	// aggregator selection (aggregators spread over nodes, always on a
	// node's leader rank), a per-cycle size exchange restricted to node
	// leaders, and an intra-node pre-combine phase in which each
	// member's sub-eager-limit requests are shipped to its node leader
	// at intra-node bandwidth and merged into one inter-node message
	// per (node, aggregator) pair. Requests at or above the eager limit
	// keep the flat direct path (they are bandwidth-bound; an extra
	// store-and-forward hop would only serialise them). Two-sided
	// shuffles only. With one rank per node the hierarchy is empty and
	// execution is bit-identical to the flat family.
	Hierarchical bool
	// Layout selects the file-domain strategy (contiguous domains by
	// default, the zero value).
	Layout DomainLayout
	// TagBase offsets the message tags of this collective so that
	// successive collectives on one file do not cross-match.
	TagBase int
	// Observers receives the collective's phase spans, cycle marks and
	// whole-collective accounting (see Observer), one observer per LP
	// indexed by mpi.Rank.LP: a sequential world is one LP, a
	// partitioned one has one LP per node. Each rank resolves its LP's
	// observer at entry, keeping every emission single-writer on its LP;
	// probe.MergeShards and metrics.MergeShards fold per-LP sinks back
	// into sequential order after the run. Nil observes nothing.
	Observers []Observer
}

// DefaultOptions returns the paper's configuration: 32 MiB collective
// buffer, automatic aggregator selection, two-sided transfers, no
// overlap.
func DefaultOptions() Options {
	return Options{BufferSize: 32 << 20}
}

// observer resolves the sinks of a rank on the given LP.
func (o *Options) observer(lp int) Observer {
	if o.Observers == nil {
		return Observer{}
	}
	return o.Observers[lp]
}

// subBuffers returns the per-cycle flush window and the sub-buffer count:
// two halves of the collective buffer (§III-A), or all of it for NoOverlap.
func (o *Options) subBuffers() (window int64, slots int) {
	if o.Algorithm == NoOverlap {
		return o.BufferSize, 1
	}
	return o.BufferSize / 2, 2
}

func (o *Options) validate() error {
	if o.BufferSize <= 0 {
		return fmt.Errorf("fcoll: BufferSize must be positive, got %d", o.BufferSize)
	}
	if o.Algorithm != NoOverlap && o.BufferSize < 2 {
		return fmt.Errorf("fcoll: BufferSize too small to split into sub-buffers")
	}
	if o.Aggregators < 0 {
		return fmt.Errorf("fcoll: negative aggregator count")
	}
	if o.Hierarchical && o.Primitive != TwoSided {
		return fmt.Errorf("fcoll: hierarchical aggregation requires the two-sided primitive, got %v", o.Primitive)
	}
	return nil
}

// Writer is the file-system interface the collective engine flushes
// aggregator buffers through. The mpiio layer implements it over the
// simulated parallel file system.
type Writer interface {
	// WriteSync persists [off, off+size) synchronously; the calling
	// rank blocks outside the MPI library for the duration (POSIX
	// pwrite semantics).
	WriteSync(r *mpi.Rank, off, size int64, data []byte)
	// WriteAsync starts an asynchronous write and returns its
	// completion future (aio_write / MPI_File_iwrite semantics).
	WriteAsync(r *mpi.Rank, off, size int64, data []byte) *sim.Future
}

// Result reports per-rank accounting for one collective write.
type Result struct {
	// Elapsed is the rank's total time inside the collective.
	Elapsed sim.Time
	// ShuffleTime is time spent in shuffle operations (init + wait).
	ShuffleTime sim.Time
	// WriteTime is time spent in file-access operations (sync writes or
	// write waits).
	WriteTime sim.Time
	// Cycles is the number of internal cycles executed.
	Cycles int
	// Aggregator reports whether this rank performed file I/O.
	Aggregator bool
	// BytesSent is the shuffle traffic this rank originated.
	BytesSent int64
	// BytesWritten is the file data this rank flushed.
	BytesWritten int64
}
