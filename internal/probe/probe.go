// Package probe is the observability layer of the simulator: a
// structured event bus plus a counters registry, threaded through all
// four simulator layers (simnet, mpi, simfs, fcoll). It turns a run
// from a final bandwidth number into explainable evidence — protocol
// transitions, queue occupancies, handshake-stall intervals and phase
// spans, in the style of Darshan's I/O characterisation counters.
//
// A nil *Probe is a valid no-op sink: every method checks its receiver,
// so instrumentation sites need no guards beyond avoiding expensive
// argument computation (sites that must compute something to emit wrap
// themselves in `if p != nil`).
//
// Probing must never perturb the simulation. Probe methods only append
// to host-side state: they schedule no kernel events on their own,
// draw no randomness, and touch no simulated state. The only kernel
// interaction instrumentation sites are allowed is registering
// observation callbacks on already-existing futures, which inserts
// extra zero-delay events but cannot reorder the existing ones (event
// order is (time, seq) with seq assigned in creation order). The
// digest-invariance regression in internal/exp enforces the contract:
// the same seed must yield the same trace.Digest() with probes on and
// off.
package probe

import (
	"fmt"

	"collio/internal/sim"
)

// Layer identifies the simulator layer an event originated in.
type Layer uint8

const (
	// LayerNet is the interconnect model (internal/simnet).
	LayerNet Layer = iota
	// LayerMPI is the message-passing runtime (internal/mpi).
	LayerMPI
	// LayerFS is the parallel file system (internal/simfs).
	LayerFS
	// LayerFcoll is the collective-write engine (internal/fcoll).
	LayerFcoll

	numLayers = 4
)

func (l Layer) String() string {
	switch l {
	case LayerNet:
		return "simnet"
	case LayerMPI:
		return "mpi"
	case LayerFS:
		return "simfs"
	case LayerFcoll:
		return "fcoll"
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Layers lists all instrumented layers in fixed order.
var Layers = []Layer{LayerNet, LayerMPI, LayerFS, LayerFcoll}

// Kind is the typed event class.
type Kind uint8

const (
	// KindNetSend marks a transfer submitted to the network (instant;
	// Rank/Peer are the endpoint *nodes*, Cause intra/inter).
	KindNetSend Kind = iota
	// KindNetDeliver marks the last byte of a transfer arriving at the
	// destination node (instant).
	KindNetDeliver
	// KindNetQueue samples the injection-port occupancy of the source
	// node at submit time (V = requests queued or in service).
	KindNetQueue
	// KindIsend / KindIrecv mark non-blocking point-to-point initiation
	// (instant; Cause eager/rendezvous on sends).
	KindIsend
	KindIrecv
	// KindWait is a completed MPI wait interval (span).
	KindWait
	// KindCollective is a collective operation on one rank (span; Cause
	// names the collective).
	KindCollective
	// KindRMA is a one-sided synchronisation call on one rank (span;
	// Cause names the call: fence, lock, unlock, post, start, complete,
	// wait-epoch). Epoch opens and closes are recoverable from the
	// cause sequence.
	KindRMA
	// KindStall is a handshake-stall interval: protocol packets sat in a
	// rank's pending queue because the rank was outside the MPI library
	// (span; V = packets drained). This is the §III-A.1 effect of the
	// reproduced paper.
	KindStall
	// KindUnexpected samples the unexpected-message queue depth after an
	// eager arrival found no posted receive (instant; V = depth).
	KindUnexpected
	// KindProto is a rendezvous protocol transition (instant; Cause
	// rts/cts/chunk/rdv-done/eager-arrive).
	KindProto
	// KindFSWrite / KindFSRead are file-system calls (span from submit
	// to persistence/arrival; Rank is the client *node*, V the offset).
	KindFSWrite
	KindFSRead
	// KindOSTQueue samples one stripe chunk queued at a storage target
	// (instant; V = target index, Dur = estimated queueing delay).
	KindOSTQueue
	// KindCycle marks a collective cycle boundary on one rank (instant;
	// V = sub-buffer slot).
	KindCycle
	// KindPhase is a collective-engine phase interval (span; Cause
	// shuffle/write/read/sync/pre-combine). A run's phase trace
	// (trace.Recorder) is a view of these events.
	KindPhase
	// KindCollOp is one whole collective file operation on one rank
	// (span; Cause coll-write/coll-read).
	KindCollOp
)

func (k Kind) String() string {
	switch k {
	case KindNetSend:
		return "net-send"
	case KindNetDeliver:
		return "net-deliver"
	case KindNetQueue:
		return "net-queue"
	case KindIsend:
		return "isend"
	case KindIrecv:
		return "irecv"
	case KindWait:
		return "wait"
	case KindCollective:
		return "collective"
	case KindRMA:
		return "rma"
	case KindStall:
		return "stall"
	case KindUnexpected:
		return "unexpected"
	case KindProto:
		return "proto"
	case KindFSWrite:
		return "fs-write"
	case KindFSRead:
		return "fs-read"
	case KindOSTQueue:
		return "ost-queue"
	case KindCycle:
		return "cycle"
	case KindPhase:
		return "phase"
	case KindCollOp:
		return "coll-op"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Cause qualifies an event: the protocol path, stall reason, collective
// or phase name.
type Cause uint8

const (
	CauseNone Cause = iota
	// Transfer / protocol paths.
	CauseEager
	CauseRendezvous
	CauseIntra
	CauseInter
	CauseRTS
	CauseCTS
	CauseChunk
	CauseRdvDone
	CauseEagerArrive
	// Collectives.
	CauseBarrier
	CauseBcast
	CauseAllreduce
	CauseAlltoall
	CauseAllgatherv
	// RMA synchronisation calls.
	CauseFence
	CauseLock
	CauseUnlock
	CausePost
	CauseStart
	CauseComplete
	CauseWaitEpoch
	// Stall attribution.
	CauseNoProgress
	// Collective-engine phases.
	CauseShuffle
	CauseWrite
	CauseRead
	CauseSync
	CauseCollWrite
	CauseCollRead
	// CausePreCombine spans the hierarchical family's intra-node
	// pre-combine phase on a node leader: waiting for member payloads,
	// merging them, and handing the combined messages to the NIC.
	CausePreCombine
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return ""
	case CauseEager:
		return "eager"
	case CauseRendezvous:
		return "rendezvous"
	case CauseIntra:
		return "intra"
	case CauseInter:
		return "inter"
	case CauseRTS:
		return "rts"
	case CauseCTS:
		return "cts"
	case CauseChunk:
		return "chunk"
	case CauseRdvDone:
		return "rdv-done"
	case CauseEagerArrive:
		return "eager-arrive"
	case CauseBarrier:
		return "barrier"
	case CauseBcast:
		return "bcast"
	case CauseAllreduce:
		return "allreduce"
	case CauseAlltoall:
		return "alltoall"
	case CauseAllgatherv:
		return "allgatherv"
	case CauseFence:
		return "fence"
	case CauseLock:
		return "lock"
	case CauseUnlock:
		return "unlock"
	case CausePost:
		return "post"
	case CauseStart:
		return "start"
	case CauseComplete:
		return "complete"
	case CauseWaitEpoch:
		return "wait-epoch"
	case CauseNoProgress:
		return "no-progress"
	case CauseShuffle:
		return "shuffle"
	case CauseWrite:
		return "write"
	case CauseRead:
		return "read"
	case CauseSync:
		return "sync"
	case CauseCollWrite:
		return "coll-write"
	case CauseCollRead:
		return "coll-read"
	case CausePreCombine:
		return "pre-combine"
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// Event is one structured observation. Span events carry Dur > 0 and
// cover [At, At+Dur); instants have Dur == 0. Rank is the owning MPI
// rank, except for LayerNet and LayerFS events where it is the node.
// Fields a site cannot know are left at their zero value (Peer and
// Cycle use -1 for "not applicable").
type Event struct {
	At    sim.Time
	Dur   sim.Time
	Layer Layer
	Kind  Kind
	Cause Cause
	Rank  int
	Peer  int
	Cycle int
	Size  int64
	V     int64
}

// End returns the end of a span event (At for instants).
func (e Event) End() sim.Time { return e.At + e.Dur }

// Name renders the canonical "kind:cause" label used by exporters.
func (e Event) Name() string {
	if e.Cause == CauseNone {
		return e.Kind.String()
	}
	return e.Kind.String() + ":" + e.Cause.String()
}

// Probe is the per-run observability sink: an append-only event log and
// a counters registry.
type Probe struct {
	events   []Event
	counters Registry
}

// New returns an empty probe. The event log is preallocated: even a
// small collective write emits thousands of events, and growing the
// slice from zero costs a dozen reallocation copies per run on the
// hot append path.
func New() *Probe { return &Probe{events: make([]Event, 0, 4096)} }

// Enabled reports whether the probe collects anything; instrumentation
// sites use it to skip expensive argument computation.
func (p *Probe) Enabled() bool { return p != nil }

// Emit appends an event. Safe on a nil receiver.
func (p *Probe) Emit(ev Event) {
	if p == nil {
		return
	}
	p.events = append(p.events, ev)
}

// Events returns the recorded events in emission order (nil on a nil
// probe).
func (p *Probe) Events() []Event {
	if p == nil {
		return nil
	}
	return p.events
}

// Counters returns the probe's counter registry; nil on a nil probe —
// the Registry methods are themselves nil-safe, so chained calls like
// p.Counters().Add(...) need no guard.
func (p *Probe) Counters() *Registry {
	if p == nil {
		return nil
	}
	return &p.counters
}

// LayerCounts tallies events per layer (diagnostics, report header).
func (p *Probe) LayerCounts() [numLayers]int {
	var out [numLayers]int
	if p == nil {
		return out
	}
	for _, e := range p.events {
		if int(e.Layer) < len(out) {
			out[e.Layer]++
		}
	}
	return out
}
