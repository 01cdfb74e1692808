package metrics

import "fmt"

// Canonical series names. Per-resource series embed the resource index
// as a dotted segment ("ost.3.busy_ns"); the Prometheus exporter lifts
// those segments into labels (collio_ost_busy_ns{ost="3"}).
const (
	// BufBytes is the aggregator collective-buffer occupancy delta
	// series (ModeDelta): +bytes when a cycle's shuffle lands in a
	// sub-buffer, -bytes when its write completes.
	BufBytes = "fcoll.buf_bytes"
	// KernelDepth is the event-heap depth of the DES kernel (ModeMax).
	// It describes the executor, not the modelled system.
	KernelDepth = "kernel.depth"
	// ChunkLatency is the client-observed latency of one stripe chunk:
	// submit to persistence ack.
	ChunkLatency = "fs.chunk_latency_ns"
	// OSTService is the storage-target service time per chunk (the
	// write service time; read-mode runs record target service here
	// too).
	OSTService = "fs.ost_service_ns"
)

// OSTDepth names target t's queue-occupancy series (ModeMax): the
// depth each arriving chunk finds, including itself.
func OSTDepth(t int) string { return fmt.Sprintf("ost.%d.depth", t) }

// OSTBusy names target t's busy-time series (ModeSum, ns per bucket).
func OSTBusy(t int) string { return fmt.Sprintf("ost.%d.busy_ns", t) }

// LinkBusy names node n's injection ("tx") or delivery ("rx") port
// busy-time series (ModeSum, ns per bucket).
func LinkBusy(n int, dir string) string { return fmt.Sprintf("link.%d.%s_busy_ns", n, dir) }

// PhaseRank names the phase-occupancy series for one collective phase
// (ModeSum): summed rank-nanoseconds spent in the phase per bucket, so
// value/Resolution() is the mean number of ranks inside the phase.
func PhaseRank(phase string) string { return "phase." + phase + ".rank_ns" }

// PhaseHist names the per-phase duration histogram.
func PhaseHist(phase string) string { return "fcoll.phase_" + phase + "_ns" }
