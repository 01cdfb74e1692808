// Package collio is a simulation-backed reproduction of "On Overlapping
// Communication and File I/O in Collective Write Operation" (Feki &
// Gabriel, IPPS 2020): a two-phase collective-write engine with the
// paper's four cycle-overlap algorithms and three shuffle transfer
// primitives, running on a deterministic discrete-event model of an MPI
// cluster (ranks, eager/rendezvous messaging with realistic progress
// semantics, one-sided communication, a striped parallel file system,
// and calibrated models of the paper's two evaluation platforms).
//
// The root package is a facade over the internal engine. Typical use:
//
//	pf := collio.Crill()
//	cluster, err := pf.Instantiate(64, seed)
//	// build a job view from a workload generator ...
//	views, _ := collio.TileIO1M().Views(64, false, seed)
//	file := collio.OpenFile(cluster.World, cluster.FS.Open("out"))
//	file.SetCollectiveOptions(collio.Options{
//	    Algorithm:  collio.WriteOverlap,
//	    BufferSize: 32 << 20,
//	})
//	cluster.World.Launch(func(r *collio.Rank) {
//	    for _, jv := range views {
//	        file.WriteAll(r, jv)
//	    }
//	})
//	cluster.Kernel.Run()
//
// or, one level higher, the experiment runner:
//
//	m, err := collio.Run(collio.Spec{
//	    Platform:  collio.Ibex(),
//	    NProcs:    256,
//	    Gen:       collio.TileIO1M(),
//	    Algorithm: collio.WriteCommOverlap,
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
package collio

import (
	"collio/internal/datatype"
	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/mpiio"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/tune"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// Core collective-write types.
type (
	// Algorithm selects the cycle-overlap strategy (paper §III-A).
	Algorithm = fcoll.Algorithm
	// Primitive selects the shuffle transfer implementation (§III-B).
	Primitive = fcoll.Primitive
	// DomainLayout selects the aggregator file-domain strategy.
	DomainLayout = fcoll.DomainLayout
	// Options configure one collective write.
	Options = fcoll.Options
	// Result is per-rank collective-write accounting.
	Result = fcoll.Result
	// JobView describes a collective write (one view per rank).
	JobView = fcoll.JobView
	// RankView is one rank's file extents and data.
	RankView = fcoll.RankView
)

// Overlap algorithms (paper Algorithms 1–4 plus the baseline).
const (
	NoOverlap         = fcoll.NoOverlap
	CommOverlap       = fcoll.CommOverlap
	WriteOverlap      = fcoll.WriteOverlap
	WriteCommOverlap  = fcoll.WriteCommOverlap
	WriteComm2Overlap = fcoll.WriteComm2Overlap
)

// Shuffle transfer primitives (the paper's three plus the PSCW
// extension).
const (
	TwoSided      = fcoll.TwoSided
	OneSidedFence = fcoll.OneSidedFence
	OneSidedLock  = fcoll.OneSidedLock
	OneSidedPSCW  = fcoll.OneSidedPSCW
)

// File-domain layouts.
const (
	ContiguousDomains = fcoll.ContiguousDomains
	RoundRobinWindows = fcoll.RoundRobinWindows
)

// Algorithms lists the paper's overlap strategies in paper order.
var Algorithms = fcoll.Algorithms

// Primitives lists the paper's shuffle primitives in paper order;
// AllPrimitives adds the extensions.
var (
	Primitives    = fcoll.Primitives
	AllPrimitives = fcoll.AllPrimitives
)

// Simulation substrate types.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Kernel is the discrete-event simulation engine.
	Kernel = sim.Kernel
	// Rank is one simulated MPI process.
	Rank = mpi.Rank
	// World is the rank set (MPI_COMM_WORLD).
	World = mpi.World
	// File is an MPI-IO style shared file handle.
	File = mpiio.File
	// FS is the simulated striped parallel file system.
	FS = simfs.FS
	// Platform is a reproducible cluster model.
	Platform = platform.Platform
	// Cluster is an instantiated platform simulation.
	Cluster = platform.Cluster
)

// Crill returns the calibrated model of the University of Houston crill
// cluster (16×48 cores, QDR IB, node-local BeeGFS, dedicated).
func Crill() Platform { return platform.Crill() }

// Ibex returns the calibrated model of the KAUST Ibex Skylake partition
// (108×40 cores, QDR IB, large shared BeeGFS).
func Ibex() Platform { return platform.Ibex() }

// Platforms returns the paper's two clusters.
func Platforms() []Platform { return platform.Platforms() }

// NewJobView validates and wraps per-rank views (dense, non-overlapping
// collective writes).
func NewJobView(ranks []RankView) (*JobView, error) { return fcoll.NewJobView(ranks) }

// OpenFile binds a world to a simulated file (MPI_File_open).
func OpenFile(w *World, f *simfs.File) *File { return mpiio.Open(w, f) }

// DefaultOptions returns the paper's collective configuration: 32 MiB
// buffer, automatic aggregators, two-sided transfers, no overlap.
func DefaultOptions() Options { return fcoll.DefaultOptions() }

// Derived-datatype helpers for building custom file views.
type (
	// Extent is a contiguous byte range in a file.
	Extent = datatype.Extent
	// Datatype describes an MPI-style derived data layout.
	Datatype = datatype.Type
)

// BytesType is a contiguous run of n raw bytes.
func BytesType(n int64) Datatype { return datatype.Bytes(n) }

// Contiguous builds count back-to-back copies of elem.
func Contiguous(count int64, elem Datatype) Datatype { return datatype.Contiguous(count, elem) }

// Vector builds an MPI_Type_vector-style strided layout.
func Vector(count, blocklen, stride int64, elem Datatype) Datatype {
	return datatype.Vector(count, blocklen, stride, elem)
}

// Subarray builds an MPI_Type_create_subarray-style n-dimensional box
// (C order) with elemSize-byte elements.
func Subarray(sizes, subsizes, starts []int64, elemSize int64) Datatype {
	return datatype.Subarray(sizes, subsizes, starts, elemSize)
}

// Flatten materialises a datatype's extents at a base file offset.
func Flatten(t Datatype, base int64) []Extent { return datatype.Flatten(t, base) }

// Workload generators for the paper's three benchmarks.
type Generator = workload.Generator

// IOR returns the scaled IOR configuration (1-D contiguous blocks).
func IOR() ior.Config { return ior.Default() }

// TileIO256 returns the scaled Tile I/O configuration with 256-byte
// elements (heavily fragmented views).
func TileIO256() tileio.Config { return tileio.Tile256() }

// TileIO1M returns the scaled Tile I/O configuration with 1 MiB
// elements (large contiguous runs).
func TileIO1M() tileio.Config { return tileio.Tile1M() }

// FlashIO returns the scaled FLASH-IO checkpoint configuration.
func FlashIO() flashio.Config { return flashio.Default() }

// Experiment runner types.
type (
	// Spec is one fully-specified benchmark run.
	Spec = exp.Spec
	// Metrics is the outcome of one run.
	Metrics = exp.Metrics
)

// Run executes one benchmark run on a simulated platform and returns
// its metrics.
func Run(spec Spec) (Metrics, error) { return exp.Execute(spec) }

// Auto-tuner types. Config is the canonical identity of one run (the
// digest-keyed cache key); Metrics above is the memoized value.
type (
	// Config is the canonical identity of one simulation run: every
	// result-determining field and nothing else. Its SHA-256 Digest
	// keys the tuner's memo cache.
	Config = exp.Config
	// Digest is the SHA-256 content digest of a Config's canonical
	// encoding — stable across processes and hosts.
	Digest = exp.Digest
	// TuneSpace is the design-space grid Select sweeps (algorithm ×
	// primitive × collective-buffer size × aggregator count ×
	// flat/hierarchical family).
	TuneSpace = tune.Space
	// TuneOptions shape a Select sweep: grid, parallelism, executor
	// strategy and on-disk cache path.
	TuneOptions = tune.Options
	// Tuner answers repeated Select queries against one shared memo
	// cache.
	Tuner = tune.Tuner
	// Selection is the answer to one Select query: the predicted-best
	// candidate plus every evaluated grid point.
	Selection = tune.Selection
	// Candidate is one evaluated grid point of a Selection.
	Candidate = tune.Candidate
)

// NewTuner builds a Tuner, opening (or creating) the on-disk memo
// cache when opts.CachePath is set.
func NewTuner(opts TuneOptions) (*Tuner, error) { return tune.New(opts) }

// HierarchicalTuneSpace returns the design-space grid that sweeps the
// flat and two-level hierarchical families side by side (every paper
// algorithm, two-sided, both common buffer sizes — 20 points). Select
// over this space arbitrates per cell whether node-aware pre-combining
// wins (DESIGN.md §16); flat precedes hierarchical in the canonical
// order, so a hierarchical winner always won strictly.
func HierarchicalTuneSpace() TuneSpace { return tune.HierarchicalSpace() }

// Select auto-tunes the collective write for one workload, platform
// and rank count: it sweeps opts.Space (DefaultSpace when zero)
// through the simulator, memoizes every point by Config digest, and
// returns the predicted-best configuration with its predicted Metrics.
// A repeated query — same question, warm cache — answers in O(lookup)
// without simulating; for a long-lived cache across queries (or the
// on-disk store), build a Tuner once and reuse it.
func Select(gen Generator, pf Platform, nprocs int, opts TuneOptions) (Selection, error) {
	t, err := tune.New(opts)
	if err != nil {
		return Selection{}, err
	}
	defer t.Close()
	return t.Select(gen, pf, nprocs)
}
