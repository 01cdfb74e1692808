// Package exp implements the paper's evaluation harness: single runs,
// measurement series, and the named experiments that regenerate
// Table I and Figures 1–4 of the reproduced paper (see DESIGN.md §5 and
// EXPERIMENTS.md).
package exp

import (
	"fmt"

	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/mpi"
	"collio/internal/mpiio"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simnet"
	"collio/internal/stats"
	"collio/internal/trace"
	"collio/internal/workload"
)

// Spec is one fully-specified benchmark run.
type Spec struct {
	Platform   platform.Platform
	NProcs     int
	Gen        workload.Generator
	Algorithm  fcoll.Algorithm
	Primitive  fcoll.Primitive
	BufferSize int64 // 0 = 32 MiB (the ompio default)
	// Aggregators fixes the aggregator count of every collective; 0
	// keeps the automatic one-per-node selection. Part of the run's
	// identity (Config digests it) — the tuner sweeps it as a design
	// axis.
	Aggregators int
	// Hierarchical selects the two-level collective-write family:
	// node-aware aggregator placement, a leaders-only per-cycle size
	// exchange, and an intra-node pre-combine phase that merges each
	// node's sub-eager-limit requests into one inter-node message per
	// aggregator (fcoll.Options.Hierarchical). Two-sided writes only.
	// Part of the run's identity (Config digests it) and a tuner axis.
	Hierarchical bool
	// Seed drives platform noise; the workload's layout uses a fixed
	// internal seed so every algorithm sees the identical job.
	Seed int64
	// Read runs the benchmark as collective reads instead of writes
	// (two-sided primitive only).
	Read bool
	// DataMode materialises real per-rank buffers instead of symbolic
	// payloads. The model charges identical virtual time either way
	// (enforced by TestDataSymbolicEquivalence); data mode exists for
	// end-to-end content verification at a host-memory cost.
	DataMode bool
	// Trace, when non-nil, receives the phase spans of the run. It is a
	// view of the collective engine's probe phase events, appended after
	// the run (fcoll.AppendTrace) from Probe, or from a private probe
	// when Probe is nil.
	Trace *trace.Recorder
	// Probe, when non-nil, is attached to all four simulator layers
	// (network, MPI, file system, collective engine) and receives
	// structured events and counters. Probes observe without
	// perturbing: trace digests are identical with and without one
	// (enforced by TestProbeDigestInvariance).
	Probe *probe.Probe
	// Metrics, when non-nil, accumulates time-series telemetry (resource
	// utilisation timelines and latency histograms) from the network,
	// file-system, kernel and collective layers. Same non-perturbation
	// contract as Probe: digests are identical with and without one
	// (enforced by TestMetricsDigestInvariance). Under JRun the sink is
	// sharded per LP and folded back with metrics.MergeShards; the
	// execution-level kernel.depth series is recorded on sequential runs
	// only.
	Metrics *metrics.Metrics
	// JRun >= 1 runs the simulation on the conservative parallel
	// executor with that many workers (one LP per simulated node), when
	// the spec is Partitionable. Results are bit-identical to the
	// sequential executor at every JRun (enforced by
	// TestParallelRunMatchesSequential); specs the executor cannot run
	// exactly fall back to sequential execution silently. 0 (the
	// default) always runs sequentially.
	JRun int
	// Bundle requests the bundled cohort executor: symmetric
	// non-aggregator ranks collapse into per-node batched event wiring
	// and collective ladders are charged in closed form, trading digest
	// fidelity for O(aggregators + nodes) simulation state (the
	// 100k–1M-rank scale path). Specs the bundled executor cannot
	// certify — asymmetric workloads, read path, data mode, one-sided
	// primitives, any noise — silently fall back to exact execution.
	// Bundled runs are validated against exact runs by makespan
	// tolerance (DESIGN.md §14), not digest equality.
	Bundle bool
}

// Partitionable reports whether spec can run on the conservative
// parallel executor with bit-identical results. The executor requires
// every cross-LP interaction to be at least one lookahead of
// deterministic latency away, which rules out: per-transfer noise
// (draws from a shared RNG in global submission order), run-level
// noise (kept out so a parallel-eligible model is fully
// deterministic), rendezvous pipelining (the chunk pump round-trips
// through the receiver's progress engine in 150 ns), one-sided
// primitives (world-wide window state), the read path (instant
// submission at the target), data mode and progress threads. Such
// specs run sequentially instead — a fallback, never an approximation.
func Partitionable(spec Spec) bool {
	pf := spec.Platform
	return !spec.Read && !spec.DataMode &&
		spec.Primitive == fcoll.TwoSided &&
		!pf.ProgressThread &&
		pf.NetNoiseSigma == 0 && pf.StorageNoiseSigma == 0 &&
		pf.RunNoiseNet == 0 && pf.RunNoiseStorage == 0 &&
		pf.RendezvousChunk < 0 &&
		pf.NetModel == simnet.ModelChunked
}

// workloadSeed fixes the job layout across a series so that only
// platform noise varies between runs.
const workloadSeed = 424242

// Execute runs one spec and returns its metrics.
func Execute(spec Spec) (Metrics, error) {
	if spec.NProcs <= 0 {
		return Metrics{}, fmt.Errorf("exp: NProcs must be positive")
	}
	// The collective engine's sinks. A trace without a probe gets a
	// private probe, attached to the collective engine only, to project
	// from; only the events this run appends are projected.
	obs := fcoll.Observer{Probe: spec.Probe, Metrics: spec.Metrics}
	if spec.Trace != nil && obs.Probe == nil {
		obs.Probe = probe.New()
	}
	mark := len(obs.Probe.Events())
	defer func() { fcoll.AppendTrace(spec.Trace, obs.Probe.Events()[mark:]) }()
	if spec.Bundle {
		if m, ok, err := executeBundled(spec, obs); ok || err != nil {
			return m, err
		}
	}
	bufSize := spec.BufferSize
	if bufSize == 0 {
		bufSize = 32 << 20
	}
	parallel := spec.JRun >= 1 && Partitionable(spec)
	var cl *platform.Cluster
	var err error
	if parallel {
		cl, err = spec.Platform.InstantiateParallel(spec.NProcs, spec.Seed)
	} else {
		cl, err = spec.Platform.Instantiate(spec.NProcs, spec.Seed)
	}
	if err != nil {
		return Metrics{}, err
	}
	views, err := spec.Gen.Views(spec.NProcs, spec.DataMode, workloadSeed)
	if err != nil {
		return Metrics{}, err
	}
	opts := fcoll.Options{
		Algorithm:    spec.Algorithm,
		Primitive:    spec.Primitive,
		BufferSize:   bufSize,
		Aggregators:  spec.Aggregators,
		Hierarchical: spec.Hierarchical,
		Observer:     obs,
	}
	// Instrumentation wiring. Partitioned runs give every LP a private
	// probe shard tagged with that LP kernel's canonical event key;
	// after the run the shards fold back into obs.Probe in exactly the
	// sequential emission order.
	var probeShards []*probe.Probe
	var metShards []*metrics.Metrics
	if parallel {
		nlp := cl.Part.NKernels()
		if obs.On() {
			opts.ObserverShards = make([]fcoll.Observer, nlp)
		}
		if obs.Probe != nil {
			probeShards = make([]*probe.Probe, nlp)
			for i := range probeShards {
				p := probe.New()
				p.KeyFn = cl.Part.Kernel(i).EventStamp
				probeShards[i] = p
				opts.ObserverShards[i].Probe = p
			}
		}
		if spec.Probe != nil {
			cl.Net.SetProbeShards(probeShards)
			cl.World.SetProbeShards(probeShards)
			cl.FS.SetProbeShards(probeShards)
		}
		if spec.Metrics != nil {
			// Metrics shards need no event key: every series folds by a
			// commutative int64 combiner (sum / max / histogram add), so
			// the merge is order-independent by construction.
			metShards = make([]*metrics.Metrics, nlp)
			for i := range metShards {
				metShards[i] = metrics.New(spec.Metrics.Resolution())
				opts.ObserverShards[i].Metrics = metShards[i]
			}
			cl.Net.SetMetricsShards(metShards)
			cl.FS.SetMetricsShards(metShards)
		}
	} else {
		if spec.Probe != nil {
			cl.Net.SetProbe(spec.Probe)
			cl.World.SetProbe(spec.Probe)
			cl.FS.SetProbe(spec.Probe)
		}
		if spec.Metrics != nil {
			cl.Net.SetMetrics(spec.Metrics)
			cl.FS.SetMetrics(spec.Metrics)
			// Event-kernel occupancy is a property of the sequential
			// execution (one global event queue); partitioned runs have
			// per-LP queues, so the series exists on sequential runs only
			// and is excluded from seq-vs-parallel dump comparison.
			kg := spec.Metrics.Gauge(metrics.KernelDepth, metrics.ModeMax)
			cl.Kernel.ObserveDepth = func(at sim.Time, depth int) {
				kg.Observe(at, int64(depth))
			}
		}
	}
	file := mpiio.Open(cl.World, cl.FS.Open(spec.Gen.Name()))
	file.SetCollectiveOptions(opts)
	type rankOut struct {
		res fcoll.Result
		err error
	}
	outs := make([]rankOut, spec.NProcs)
	cl.World.Launch(func(r *mpi.Rank) {
		var acc fcoll.Result
		for _, jv := range views {
			var res fcoll.Result
			var err error
			if spec.Read {
				res, err = file.ReadAll(r, jv)
			} else {
				res, err = file.WriteAll(r, jv)
			}
			if err != nil {
				outs[r.ID()].err = err
				return
			}
			acc.ShuffleTime += res.ShuffleTime
			acc.WriteTime += res.WriteTime
			acc.BytesWritten += res.BytesWritten
			acc.Aggregator = acc.Aggregator || res.Aggregator
			if acc.Cycles == 0 {
				acc.Cycles = res.Cycles
			}
		}
		outs[r.ID()].res = acc
	})
	if parallel {
		cl.Part.Run(spec.JRun)
		probe.MergeShards(obs.Probe, probeShards)
		metrics.MergeShards(spec.Metrics, metShards)
	} else {
		cl.Kernel.Run()
	}

	var m Metrics
	m.Elapsed = cl.World.Elapsed()
	for _, o := range outs {
		if o.err != nil {
			return Metrics{}, o.err
		}
		m.BytesWritten += o.res.BytesWritten
		if o.res.Aggregator {
			m.Aggregators++
			if o.res.ShuffleTime > m.ShuffleTime {
				m.ShuffleTime = o.res.ShuffleTime
			}
			if o.res.WriteTime > m.WriteTime {
				m.WriteTime = o.res.WriteTime
			}
		}
		if o.res.Cycles > m.Cycles {
			m.Cycles = o.res.Cycles
		}
	}
	return m, nil
}

// RunSeries runs a spec `runs` times with seeds seedBase, seedBase+1, …
// and returns the elapsed-time series (the paper runs 3–9 measurements
// per series). Runs execute sequentially; use RunSeriesP to fan them
// across workers.
func RunSeries(spec Spec, runs int, seedBase int64) (stats.Series, error) {
	return RunSeriesP(spec, runs, seedBase, 1)
}

// RunSeriesP is RunSeries with the independent runs of the series fanned
// across up to parallel workers (<= 0 means every core). Each run owns a
// private simulation stack built inside Execute, and samples enter the
// series in seed order regardless of completion order, so the result is
// identical at every parallelism. A spec carrying shared instrumentation
// sinks (Trace or Probe) is forced sequential — those sinks are
// single-owner.
func RunSeriesP(spec Spec, runs int, seedBase int64, parallel int) (stats.Series, error) {
	if spec.Trace != nil || spec.Probe != nil || spec.Metrics != nil {
		parallel = 1
	}
	times := make([]sim.Time, runs)
	errs := make([]error, runs)
	forEach(parallel, runs, func(i int) {
		s := spec
		s.Seed = seedBase + int64(i)
		m, err := Execute(s)
		times[i], errs[i] = m.Elapsed, err
	})
	if err := firstError(errs); err != nil {
		return stats.Series{}, err
	}
	var s stats.Series
	for _, t := range times {
		s.Add(t)
	}
	return s, nil
}
