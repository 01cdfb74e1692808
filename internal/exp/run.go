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
	// (enforced by TestMetricsDigestInvariance).
	Metrics *metrics.Metrics
	// Bundle requests the bundled cohort executor: symmetric
	// non-aggregator ranks collapse into per-node batched event wiring
	// and collective ladders are charged in closed form, trading digest
	// fidelity for O(aggregators + nodes) simulation state (the
	// 100k–1M-rank scale path). Specs the bundled executor cannot
	// certify — asymmetric workloads, read path, data mode, one-sided
	// primitives, hierarchical aggregation, any noise — silently fall
	// back to the exact executor (routeFor; ExecutorFor reports the
	// choice). Bundled runs are validated against exact runs by makespan
	// tolerance (DESIGN.md §14), not digest equality.
	Bundle bool
}

// Executor names the engine that runs a spec.
type Executor string

const (
	// ExactExecutor runs every rank as a coroutine on one event kernel.
	ExactExecutor Executor = "exact"
	// BundledExecutor runs the cohort executor (bundled.go): real
	// aggregators, symmetric non-aggregators replayed from the plan,
	// collective ladders in closed form.
	BundledExecutor Executor = "bundled"
)

// route is how Execute runs a spec: the executor and, for the bundled
// one, the views and collective plans its cohort check built.
type route struct {
	exec   Executor
	views  []*fcoll.JobView
	scheds []*fcoll.Schedule
}

// routeFor decides which executor runs spec; it is the one place the
// choice is made. A Bundle request runs bundled when the spec is a
// write with symbolic payloads, two-sided flat shuffles, no progress
// thread and a noise-free platform (so the model is deterministic end
// to end), and every view's plan collapses into rank-symmetric cohorts
// (cohortPlan): its closed-form ladders are only meaningful relative to
// that model. Anything else runs exact — a fallback, never an
// approximation of the exact run.
func routeFor(spec Spec) (route, error) {
	pf := spec.Platform
	if spec.Bundle && !spec.Read && !spec.DataMode && spec.Primitive == fcoll.TwoSided &&
		!spec.Hierarchical && !pf.ProgressThread && !pf.Noisy() {
		views, scheds, err := cohortPlan(spec)
		if err != nil {
			return route{}, err
		}
		if scheds != nil {
			return route{BundledExecutor, views, scheds}, nil
		}
	}
	return route{exec: ExactExecutor}, nil
}

// ExecutorFor reports the executor Execute runs spec on, without
// running it. Only a Bundle request costs more than a field check: it
// builds the views and plans for the cohort check (milliseconds, no
// simulation).
func ExecutorFor(spec Spec) (Executor, error) {
	rt, err := routeFor(spec)
	return rt.exec, err
}

// collOptions returns the collective options spec runs with.
func (spec Spec) collOptions() fcoll.Options {
	return fcoll.Options{
		Algorithm:    spec.Algorithm,
		Primitive:    spec.Primitive,
		BufferSize:   normalizeBufferSize(spec.BufferSize),
		Aggregators:  spec.Aggregators,
		Hierarchical: spec.Hierarchical,
	}
}

// workloadSeed fixes the job layout across a series so that only
// platform noise varies between runs.
const workloadSeed = 424242

// Execute runs one spec on the executor routeFor picks and returns its
// metrics.
func Execute(spec Spec) (Metrics, error) {
	if spec.NProcs <= 0 {
		return Metrics{}, fmt.Errorf("exp: NProcs must be positive")
	}
	rt, err := routeFor(spec)
	if err != nil {
		return Metrics{}, err
	}
	var cl *platform.Cluster
	if rt.exec == BundledExecutor {
		cl, err = spec.Platform.ScaledTo(spec.NProcs).InstantiateBundled(spec.NProcs, spec.Seed)
	} else {
		cl, err = spec.Platform.Instantiate(spec.NProcs, spec.Seed)
	}
	if err != nil {
		return Metrics{}, err
	}
	obs, fold := wireSinks(spec, cl)
	var m Metrics
	if rt.exec == BundledExecutor {
		m, err = runBundled(spec, cl, rt, obs)
	} else {
		m, err = runExact(spec, cl, obs)
	}
	fold()
	if err == nil {
		err = checkPooled(cl)
	}
	return m, err
}

// checkPooled is the world-end leak check: once a run has drained,
// every RMA epoch must be closed (mpi.World.OpenEpochs: no unclosed
// put, held lock or open start/post group), every kernel's flow table
// empty (sim.Kernel.OpenFlows) and every pooled server request,
// transfer, MPI request, protocol message, put completion and stripe
// chunk back in a pool. A live one (a server request
// never served, a flow never closed, a request never waited, a message
// never consumed, a put never closed, a chunk never finished) is a
// defect in the protocol stack, so the run fails rather than report a
// result.
func checkPooled(cl *platform.Cluster) error {
	served, flows := cl.Kernel.LiveRequests(), cl.Kernel.OpenFlows()
	transfers, chunks := cl.Net.LiveTransfers(), cl.FS.LiveChunks()
	var requests, msgs, puts int
	if cl.World != nil {
		if err := cl.World.OpenEpochs(); err != nil {
			return fmt.Errorf("exp: RMA epoch open at world end: %w", err)
		}
		requests, msgs, puts = cl.World.LivePooled()
	}
	if served != 0 || flows != 0 || transfers != 0 || requests != 0 || msgs != 0 || puts != 0 || chunks != 0 {
		return fmt.Errorf("exp: %d server requests, %d server flows, %d transfers, %d MPI requests, %d protocol messages, %d put completions and %d stripe chunks still live at world end", served, flows, transfers, requests, msgs, puts, chunks)
	}
	return nil
}

// wireSinks attaches spec's instrumentation to every layer of cl — the
// one sink-wiring path of both executors — and returns the collective
// engine's observer and the fold to call after the run, which projects
// the run's phase events onto spec.Trace. A trace without a probe gets
// a private probe attached to the collective engine only.
func wireSinks(spec Spec, cl *platform.Cluster) (fcoll.Observer, func()) {
	obs := fcoll.Observer{Probe: spec.Probe, Metrics: spec.Metrics}
	if spec.Trace != nil && obs.Probe == nil {
		obs.Probe = probe.New()
	}
	mark := len(obs.Probe.Events())
	if spec.Metrics != nil {
		kg := spec.Metrics.Gauge(metrics.KernelDepth, metrics.ModeMax)
		cl.Kernel.ObserveDepth = func(at sim.Time, depth int) {
			kg.Observe(at, int64(depth))
		}
	}
	cl.Net.SetSinks(spec.Probe, spec.Metrics)
	if cl.World != nil {
		cl.World.SetProbe(spec.Probe)
	}
	cl.FS.SetSinks(spec.Probe, spec.Metrics)
	return obs, func() { fcoll.AppendTrace(spec.Trace, obs.Probe.Events()[mark:]) }
}

// runExact runs spec on the exact executor, with the collective engine
// reporting to obs.
func runExact(spec Spec, cl *platform.Cluster, obs fcoll.Observer) (Metrics, error) {
	views, err := spec.Gen.Views(spec.NProcs, spec.DataMode, workloadSeed)
	if err != nil {
		return Metrics{}, err
	}
	opts := spec.collOptions()
	opts.Observer = obs
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
	cl.Kernel.Run()

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
// sinks (Trace, Probe or Metrics) is forced sequential — those sinks are
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
