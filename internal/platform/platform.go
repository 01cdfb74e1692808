// Package platform defines calibrated cluster models for the two
// systems of the reproduced paper — crill (University of Houston) and
// Ibex (KAUST) — plus a builder for custom platforms.
//
// Calibration follows §IV of the paper:
//
//   - Both clusters use QDR InfiniBand; measured point-to-point
//     bandwidth ~2.6 GB/s on crill (older AMD Magny-Cours hosts) and
//     ~3.4 GB/s on Ibex.
//   - Both run BeeGFS with 1 MiB stripes and 16 storage targets. On
//     crill the targets are two extra hard drives in each of the 16
//     compute nodes (slow, node-local, shares the NIC for remote
//     stripes); Ibex uses a large external parallel storage system with
//     far higher write bandwidth.
//   - crill was dedicated during the measurements (low variance); Ibex
//     was shared with other users (high variance). The models encode
//     this as service-time noise drawn from the seeded simulation RNG.
//
// The intended consequence, which the experiments reproduce: on crill
// the collective write is heavily I/O-bound (the paper measures ~93 %
// of time in file access for Tile I/O 1M at 576 processes), leaving a
// small overlap window; on Ibex communication is ~23 % of the time,
// leaving a much larger one.
package platform

import (
	"fmt"
	"math"

	"collio/internal/mpi"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/simnet"
)

// Platform is a reproducible cluster description.
type Platform struct {
	// Name identifies the platform in reports.
	Name string
	// Nodes is the cluster size; RanksPerNode the cores used per node.
	Nodes        int
	RanksPerNode int

	// Interconnect.
	InterBandwidth float64
	InterLatency   sim.Time
	IntraBandwidth float64
	IntraLatency   sim.Time
	MemBandwidth   float64
	// NetNoiseSigma > 0 adds log-normal service-time noise to links
	// (shared fabric).
	NetNoiseSigma float64
	// RunNoiseNet / RunNoiseStorage add one log-normal factor per RUN
	// to the network and storage bandwidths: the correlated
	// interference regime of a shared machine (other jobs during a
	// measurement), which per-transfer noise cannot produce because it
	// averages out over thousands of transfers. This is what makes
	// min-of-series a meaningful statistic, as in the paper's
	// methodology (§IV).
	RunNoiseNet     float64
	RunNoiseStorage float64

	// Storage.
	StripeSize      int64
	StorageTargets  int
	TargetBandwidth float64
	TargetPerOp     sim.Time
	StorageLatency  sim.Time
	// NodeLocalStorage places target t on compute node t%Nodes (crill);
	// otherwise storage is external.
	NodeLocalStorage bool
	// StorageNoiseSigma > 0 adds log-normal noise to target service
	// times (shared storage).
	StorageNoiseSigma float64

	// MPI stack tuning; zero values fall back to mpi.DefaultConfig.
	EagerLimit     int64
	ProgressThread bool
	// RendezvousChunk overrides the rendezvous pipeline granularity:
	// > 0 sets the chunk size, < 0 disables pipelining (single-shot
	// hardware transfers, required for partitioned execution), 0 keeps
	// the mpi.DefaultConfig value (1 MiB).
	RendezvousChunk int64
	// CombinePerOp is the node leader's per-fragment merge cost in the
	// hierarchical pre-combine phase (intra-node request aggregation);
	// zero keeps the mpi.DefaultConfig value. Charged only by the
	// hierarchical algorithm family, so flat runs never see it.
	CombinePerOp sim.Time

	// NetModel selects the simnet transfer model: ModelChunked (zero
	// value, the exact reference) or ModelFlow (fluid max-min fair
	// sharing for bulk transfers). ModelFlow requires a noise-free
	// network and sequential execution; see simnet.NetModel.
	NetModel simnet.NetModel
}

// Crill models the University of Houston crill partition: 16 quad-CPU
// AMD nodes, 48 cores each, QDR InfiniBand, BeeGFS striped over two
// extra HDDs per node, dedicated during measurements.
func Crill() Platform {
	return Platform{
		Name:         "crill",
		Nodes:        16,
		RanksPerNode: 48,

		InterBandwidth:  2.6e9,
		InterLatency:    2 * sim.Microsecond,
		IntraBandwidth:  5e9,
		IntraLatency:    400 * sim.Nanosecond,
		MemBandwidth:    6e9,
		NetNoiseSigma:   0.05, // dedicated: low variance
		RunNoiseNet:     0.02,
		RunNoiseStorage: 0.04,

		StripeSize:        1 << 20,
		StorageTargets:    16,
		TargetBandwidth:   80e6, // two contended HDDs per node
		TargetPerOp:       150 * sim.Microsecond,
		StorageLatency:    8 * sim.Microsecond,
		NodeLocalStorage:  true,
		StorageNoiseSigma: 0.08,

		EagerLimit: 512 << 10,
		// Older AMD hosts: request-list merging at the node leader costs
		// about one intra-node handoff per fragment.
		CombinePerOp: 500 * sim.Nanosecond,
	}
}

// Ibex models the KAUST Ibex Skylake partition: 108 nodes, 40 cores
// each, QDR InfiniBand, a 3.6 PB BeeGFS with 16 storage targets, shared
// with other users during measurements.
func Ibex() Platform {
	return Platform{
		Name:         "ibex",
		Nodes:        108,
		RanksPerNode: 40,

		InterBandwidth:  3.4e9,
		InterLatency:    1700 * sim.Nanosecond,
		IntraBandwidth:  9e9,
		IntraLatency:    300 * sim.Nanosecond,
		MemBandwidth:    12e9,
		NetNoiseSigma:   0.15, // shared fabric
		RunNoiseNet:     0.08,
		RunNoiseStorage: 0.18, // shared storage: regime-level variance

		StripeSize:        1 << 20,
		StorageTargets:    16,
		TargetBandwidth:   650e6, // large shared parallel storage system
		TargetPerOp:       60 * sim.Microsecond,
		StorageLatency:    12 * sim.Microsecond,
		NodeLocalStorage:  false,
		StorageNoiseSigma: 0.25, // shared storage: heavy variance

		EagerLimit: 512 << 10,
		// Skylake hosts merge request lists faster than crill's AMD
		// nodes, in line with the intra-node latency gap.
		CombinePerOp: 300 * sim.Nanosecond,
	}
}

// Platforms returns the paper's two clusters.
func Platforms() []Platform { return []Platform{Crill(), Ibex()} }

// Deterministic returns a copy of the platform with every noise source
// zeroed and rendezvous pipelining disabled — the configuration the
// conservative parallel executor requires. Per-transfer noise draws
// from a shared RNG in global submission order (zero lookahead between
// LPs), and the chunk pump round-trips through the receiver's progress
// engine in 150 ns; both are proven incompatible with exact partitioned
// execution (DESIGN.md §11). Run-level noise factors would partition
// fine (they are drawn once before the run) but are zeroed too so a
// deterministic model is deterministic end to end.
func (pf Platform) Deterministic() Platform {
	pf.NetNoiseSigma = 0
	pf.StorageNoiseSigma = 0
	pf.RunNoiseNet = 0
	pf.RunNoiseStorage = 0
	pf.RendezvousChunk = -1
	return pf
}

// MaxProcs returns the largest rank count the platform supports.
func (pf Platform) MaxProcs() int { return pf.Nodes * pf.RanksPerNode }

// lognormal builds a multiplicative noise factor with the given sigma,
// mean-preserving (E[factor] = 1).
func lognormal(sigma float64) func(rng func() float64) float64 {
	if sigma <= 0 {
		return nil
	}
	mu := -sigma * sigma / 2
	return func(rng func() float64) float64 {
		// Box-Muller from two uniforms.
		u1, u2 := rng(), rng()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		return math.Exp(mu + sigma*z)
	}
}

// Cluster is one instantiated simulation of a platform.
type Cluster struct {
	Platform Platform
	Kernel   *sim.Kernel
	Net      *simnet.Network
	World    *mpi.World
	FS       *simfs.FS
	// Part is the LP partition of a parallel instantiation (nil for
	// sequential clusters). Kernel is then LP 0's kernel; run the
	// simulation with Part.Run instead of Kernel.Run.
	Part *sim.Partition
}

// Instantiate builds a simulation of the platform running nprocs ranks,
// seeded for reproducibility.
func (pf Platform) Instantiate(nprocs int, seed int64) (*Cluster, error) {
	return pf.build(nprocs, true, func(int) (substrate, error) {
		if pf.NetModel == simnet.ModelFlow && pf.NetNoiseSigma != 0 {
			return substrate{}, fmt.Errorf("platform: %s: flow network model requires NetNoiseSigma = 0 (use Deterministic())", pf.Name)
		}
		l := substrate{k: sim.NewKernel(seed), netF: 1, storF: 1}
		// Run-level interference: one bandwidth regime per
		// instantiation, drawn from the seeded RNG so series stay
		// reproducible.
		if f := lognormal(pf.RunNoiseNet); f != nil {
			l.netF = f(l.k.Rand().Float64)
		}
		if f := lognormal(pf.RunNoiseStorage); f != nil {
			l.storF = f(l.k.Rand().Float64)
		}
		return l, nil
	})
}

// substrate is what an Instantiate variant runs a cluster on: one
// kernel, or a partition with one LP per node, plus the run-level
// bandwidth factors of the network and the storage targets.
type substrate struct {
	k           *sim.Kernel
	part        *sim.Partition
	netF, storF float64
}

// build is the one cluster builder behind Instantiate,
// InstantiateParallel and InstantiateBundled. It checks the capacity,
// sizes the machine (storage spans every node under NodeLocalStorage)
// and hands the node count to prepare, which applies the variant's own
// checks and returns the kernel or partition to build on. It then wires
// the network, the file system and, with world, the MPI world.
func (pf Platform) build(nprocs int, world bool, prepare func(nodes int) (substrate, error)) (*Cluster, error) {
	if nprocs <= 0 {
		return nil, fmt.Errorf("platform: nprocs must be positive, got %d", nprocs)
	}
	if nprocs > pf.MaxProcs() {
		hint := ""
		if !world {
			hint = " (ScaledTo first)"
		}
		return nil, fmt.Errorf("platform: %s supports at most %d processes (%d nodes × %d), got %d%s",
			pf.Name, pf.MaxProcs(), pf.Nodes, pf.RanksPerNode, nprocs, hint)
	}
	nodes := (nprocs + pf.RanksPerNode - 1) / pf.RanksPerNode
	if pf.NodeLocalStorage && nodes < pf.Nodes {
		// Storage spans the full cluster even when fewer nodes compute
		// (crill's BeeGFS is distributed over all 16 nodes).
		nodes = pf.Nodes
	}
	l, err := prepare(nodes)
	if err != nil {
		return nil, err
	}
	netcfg := simnet.Config{
		Nodes:          nodes,
		InterBandwidth: pf.InterBandwidth * l.netF,
		InterLatency:   pf.InterLatency,
		IntraBandwidth: pf.IntraBandwidth,
		IntraLatency:   pf.IntraLatency,
		MemBandwidth:   pf.MemBandwidth,
		LinkNoise:      lognormal(pf.NetNoiseSigma),
		NetModel:       pf.NetModel,
	}
	fscfg := simfs.Config{
		StripeSize:      pf.StripeSize,
		NumTargets:      pf.StorageTargets,
		TargetBandwidth: pf.TargetBandwidth * l.storF,
		TargetPerOp:     pf.TargetPerOp,
		TargetNoise:     lognormal(pf.StorageNoiseSigma),
		NetLatency:      pf.StorageLatency,
		ClientPerOp:     20 * sim.Microsecond,
	}
	if pf.NodeLocalStorage {
		fscfg.TargetNode = func(t int) int { return t % nodes }
	}
	cl := &Cluster{Platform: pf, Kernel: l.k, Part: l.part}
	if l.part != nil {
		cl.Kernel = l.part.Kernel(0)
		cl.Net = simnet.NewPartitioned(l.part, netcfg)
	} else {
		cl.Net = simnet.New(l.k, netcfg)
	}
	if world {
		if cl.World, err = mpi.NewWorld(cl.Kernel, cl.Net, pf.mpiConfig(nprocs)); err != nil {
			return nil, err
		}
	}
	if l.part != nil {
		cl.FS, err = simfs.NewPartitioned(l.part, cl.Net, fscfg)
	} else {
		cl.FS, err = simfs.New(l.k, cl.Net, fscfg)
	}
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// mpiConfig assembles the MPI runtime configuration for nprocs ranks.
func (pf Platform) mpiConfig(nprocs int) mpi.Config {
	cfg := mpi.DefaultConfig(nprocs, pf.RanksPerNode)
	if pf.EagerLimit > 0 {
		cfg.EagerLimit = pf.EagerLimit
	}
	if pf.RendezvousChunk != 0 {
		cfg.RendezvousChunk = pf.RendezvousChunk
	}
	if pf.CombinePerOp > 0 {
		cfg.CombinePerOp = pf.CombinePerOp
	}
	cfg.ProgressThread = pf.ProgressThread
	return cfg
}

// Lookahead returns the conservative-parallel window width of the
// platform: the smallest deterministic latency separating LPs. Every
// cross-LP interaction is at least one inter-node wire latency, one
// client-to-storage latency, or one storage per-op overhead away, so
// events inside a [T, T+Lookahead) window on different LPs cannot
// affect each other (the safety argument in DESIGN.md §11).
func (pf Platform) Lookahead() sim.Time {
	la := pf.InterLatency
	if pf.StorageLatency < la {
		la = pf.StorageLatency
	}
	if pf.TargetPerOp < la {
		la = pf.TargetPerOp
	}
	return la
}

// InstantiateParallel builds a partitioned simulation of the platform:
// one logical process per compute node (plus a storage LP when the
// file system is external), conservatively synchronised in windows of
// Lookahead(). Run it with Cluster.Part.Run(workers); results are
// bit-identical to Instantiate on the same deterministic platform.
// The platform must be noise-free with pipelining disabled (see
// Deterministic) — anything else has cross-LP couplings below the
// lookahead and is rejected rather than approximated.
func (pf Platform) InstantiateParallel(nprocs int, seed int64) (*Cluster, error) {
	return pf.build(nprocs, true, func(nodes int) (substrate, error) {
		if pf.Noisy() {
			return substrate{}, fmt.Errorf("platform: %s: partitioned execution requires a noise-free model (use Deterministic())", pf.Name)
		}
		if pf.RendezvousChunk >= 0 {
			return substrate{}, fmt.Errorf("platform: %s: partitioned execution requires RendezvousChunk < 0 (use Deterministic())", pf.Name)
		}
		if pf.NetModel != simnet.ModelChunked {
			return substrate{}, fmt.Errorf("platform: %s: partitioned execution requires the chunked network model (flow mode re-rates flows on other nodes at the instant of every arrival, zero lookahead)", pf.Name)
		}
		nlps := nodes
		if !pf.NodeLocalStorage {
			nlps++ // dedicated storage LP for external targets
		}
		return substrate{part: sim.NewPartition(seed, nlps, pf.Lookahead()), netF: 1, storF: 1}, nil
	})
}

// ScaledTo returns a copy of the platform grown to hold nprocs ranks:
// if the rank count needs more compute nodes than the calibrated
// machine has, Nodes is raised to the required count and the storage
// target count scales proportionally (a bigger cluster comes with a
// proportionally bigger file system, keeping per-rank storage
// bandwidth constant). Platforms already large enough are unchanged,
// so paper-scale runs keep the calibrated machine exactly.
func (pf Platform) ScaledTo(nprocs int) Platform {
	need := (nprocs + pf.RanksPerNode - 1) / pf.RanksPerNode
	if need <= pf.Nodes {
		return pf
	}
	pf.StorageTargets = pf.StorageTargets * need / pf.Nodes
	pf.Nodes = need
	return pf
}

// InstantiateBundled builds the simulation substrate for the bundled
// cohort executor: kernel, network and file system, but no mpi.World —
// bundled execution replays rank behaviour from the collective plan
// instead of running per-rank coroutines, so the returned Cluster has
// World == nil. There is no MaxProcs cap (callers scale the platform
// with ScaledTo first) and the platform must be noise-free: the
// bundled path models collective ladders in closed form, which is only
// exact relative to a deterministic machine.
func (pf Platform) InstantiateBundled(nprocs int, seed int64) (*Cluster, error) {
	return pf.build(nprocs, false, func(int) (substrate, error) {
		if pf.Noisy() {
			return substrate{}, fmt.Errorf("platform: %s: bundled execution requires a noise-free model (use Deterministic())", pf.Name)
		}
		return substrate{k: sim.NewKernel(seed), netF: 1, storF: 1}, nil
	})
}

// Noisy reports whether any of the four noise knobs is set: per-transfer
// link or storage noise, or a run-level network or storage regime.
func (pf Platform) Noisy() bool {
	return pf.NetNoiseSigma != 0 || pf.StorageNoiseSigma != 0 || pf.RunNoiseNet != 0 || pf.RunNoiseStorage != 0
}
