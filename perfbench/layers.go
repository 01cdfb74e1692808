package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/probe"
	"collio/internal/probe/export"
	"collio/internal/sim"
)

// acc accumulates a traced run's per-layer measurements by key.
// Per-op means divide by ops, the number of Execute calls the run
// decomposed into layer calls.
type acc struct {
	sum map[string]float64
	ops float64
}

func newAcc() *acc { return &acc{sum: map[string]float64{}} }

func (a *acc) add(k string, v float64) { a.sum[k] += v }

func (a *acc) max(k string, v float64) { a.sum[k] = max(a.sum[k], v) }

func div(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

func mean(k string) func(*acc) float64 { return func(a *acc) float64 { return div(a.sum[k], a.ops) } }

func total(k string) func(*acc) float64 { return func(a *acc) float64 { return a.sum[k] } }

func ratio(n, d string) func(*acc) float64 {
	return func(a *acc) float64 { return div(a.sum[n], a.sum[d]) }
}

// layerMetric is one per-layer metric: how it is computed, and the
// end-to-end metric and workload it should move.
type layerMetric struct {
	metricDef
	moves, on string
	value     func(*acc) float64
}

const (
	pg  = "paper-grid"
	rg  = "read-grid"
	sb  = "scale-bundled"
	sh  = "select-hier"
	all = "every workload"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order. Host
// times (ms, us) are per-op means; sim-ms are simulated milliseconds
// per op; counts are totals over the traced pass; ratios are taken over
// the whole pass.
var perLayer = []layerMetric{
	{metricDef{"workload.views_ms", "ms", "lower"}, "op_p50_ms, wall_s", sb, mean("workload.views_ms")},
	{metricDef{"workload.extents", "count", "lower"}, "op_p50_ms, wall_s", sb, total("workload.extents")},
	{metricDef{"platform.instantiate_ms", "ms", "lower"}, "wall_s", pg + ", " + rg, mean("platform.instantiate_ms")},
	{metricDef{"fcoll.plan_ms", "ms", "lower"}, "wall_s, peak_rss_mib", sb + "; " + pg + " tileio-256 cells", mean("fcoll.plan_ms")},
	{metricDef{"fcoll.plan_sends", "count", "lower"}, "wall_s, peak_rss_mib", sb, total("fcoll.plan_sends")},
	{metricDef{"fcoll.cohorts_ms", "ms", "lower"}, "wall_s, peak_rss_mib", sb, mean("fcoll.cohorts_ms")},
	{metricDef{"fcoll.cohort_ratio", "ratio", "lower"}, "wall_s, peak_rss_mib", sb, ratio("fcoll.cohorts", "fcoll.cohort_ranks")},
	{metricDef{"fcoll.cycles", "count", "lower"}, "sim_ms", pg + ", " + rg, total("fcoll.cycles")},
	{metricDef{"fcoll.shuffle_mib", "MiB", "lower"}, "sim_ms", pg + ", " + rg, mean("fcoll.shuffle_mib")},
	{metricDef{"fcoll.write_mib", "MiB", "lower"}, "sim_ms", pg + ", " + rg, mean("fcoll.write_mib")},
	{metricDef{"fcoll.shuffle_sim_ms", "sim-ms", "lower"}, "sim_ms", pg + ", " + rg, mean("fcoll.shuffle_sim_ms")},
	{metricDef{"fcoll.write_sim_ms", "sim-ms", "lower"}, "sim_ms", pg + ", " + rg, mean("fcoll.write_sim_ms")},
	{metricDef{"fcoll.overlap_frac", "ratio", "higher"}, "sim_ms", pg + ", " + rg, func(a *acc) float64 {
		return 1 - div(a.sum["fcoll.elapsed_sim_ms"], a.sum["fcoll.shuffle_sim_ms"]+a.sum["fcoll.write_sim_ms"])
	}},
	{metricDef{"fcoll.stall_in_write_ms", "sim-ms", "lower"}, "sim_ms", pg + ", " + rg, mean("fcoll.stall_in_write_ms")},
	{metricDef{"fcoll.precombine_spans", "count", "lower"}, "sim_ms", sh, total("fcoll.precombine_spans")},
	{metricDef{"exp.execute_ms", "ms", "lower"}, "wall_s", pg + ", " + rg, mean("exp.execute_ms")},
	{metricDef{"exp.run_self_ms", "ms", "lower"}, "wall_s", pg + ", " + rg, mean("exp.run_self_ms")},
	{metricDef{"exp.run_ns_per_event", "ns/event", "lower"}, "wall_s", pg + ", " + rg, ratio("exp.run_self_ns", "observe.probe_events")},
	{metricDef{"exp.bundled_ratio", "ratio", "higher"}, "wall_s", sb, ratio("exp.bundle_collapsed", "exp.bundle_requested")},
	{metricDef{"exp.digest_us", "us", "lower"}, "op_p50_ms", sh, ratio("exp.digest_us", "exp.digests")},
	{metricDef{"sim.kernel_depth_peak", "count", "lower"}, "wall_s", pg, mean("sim.kernel_depth_peak")},
	{metricDef{"simnet.events", "count", "lower"}, "wall_s", pg, total("simnet.events")},
	{metricDef{"simnet.msgs", "count", "lower"}, "wall_s", pg, total("simnet.msgs")},
	{metricDef{"simnet.inter_mib", "MiB", "lower"}, "sim_ms", pg, mean("simnet.inter_mib")},
	{metricDef{"simnet.intra_mib", "MiB", "lower"}, "sim_ms", pg + "; " + sh + " pre-combine", mean("simnet.intra_mib")},
	{metricDef{"simnet.link_busy_frac", "ratio", "higher"}, "sim_ms", pg, ratio("simnet.link_busy_ns", "simnet.link_cap_ns")},
	{metricDef{"mpi.events", "count", "lower"}, "wall_s", pg, total("mpi.events")},
	{metricDef{"mpi.eager_msgs", "count", "lower"}, "wall_s, sim_ms", pg, total("mpi.eager_msgs")},
	{metricDef{"mpi.rdv_msgs", "count", "lower"}, "wall_s, sim_ms", pg, total("mpi.rdv_msgs")},
	{metricDef{"mpi.stall_ms", "sim-ms", "lower"}, "sim_ms", pg, mean("mpi.stall_ms")},
	{metricDef{"mpi.fence_wait_ms", "sim-ms", "lower"}, "sim_ms", pg, mean("mpi.fence_wait_ms")},
	{metricDef{"mpi.unexpected_peak", "count", "lower"}, "wall_s", pg, total("mpi.unexpected_peak")},
	{metricDef{"simfs.events", "count", "lower"}, "sim_ms", pg + ", " + rg, total("simfs.events")},
	{metricDef{"simfs.writes", "count", "lower"}, "sim_ms", pg, total("simfs.writes")},
	{metricDef{"simfs.write_mib", "MiB", "lower"}, "sim_ms", pg, mean("simfs.write_mib")},
	{metricDef{"simfs.reads", "count", "lower"}, "sim_ms", rg, total("simfs.reads")},
	{metricDef{"simfs.read_mib", "MiB", "lower"}, "sim_ms", rg, mean("simfs.read_mib")},
	{metricDef{"simfs.ost_busy_frac", "ratio", "higher"}, "sim_ms", pg + ", " + rg, ratio("simfs.ost_busy_ns", "simfs.ost_cap_ns")},
	{metricDef{"tune.select_cold_ms", "ms", "lower"}, "wall_s", sh, ratio("tune.cold_ms", "tune.cold_n")},
	{metricDef{"tune.select_warm_us", "us", "lower"}, "op_p50_ms", sh, ratio("tune.warm_us", "tune.warm_n")},
	{metricDef{"tune.hit_ratio", "ratio", "higher"}, "op_p50_ms", sh, ratio("tune.hits", "tune.lookups")},
	{metricDef{"tune.simulations", "count", "lower"}, "wall_s", sh, total("tune.simulations")},
	{metricDef{"tune.coalesced", "count", "higher"}, "wall_s", sh, total("tune.coalesced")},
	{metricDef{"tune.pool_speedup", "ratio", "higher"}, "wall_s", sh, ratio("tune.sequential_ms", "tune.cold_ms")},
	{metricDef{"tune.store_open_ms", "ms", "lower"}, "setup_s", sh, total("tune.store_open_ms")},
	{metricDef{"tune.store_kib", "KiB", "lower"}, "setup_s", sh, total("tune.store_kib")},
	{metricDef{"observe.probe_events", "count", "lower"}, "none by design", all, total("observe.probe_events")},
	{metricDef{"observe.overhead_frac", "ratio", "lower"}, "none by design", all, func(a *acc) float64 {
		return div(a.sum["observe.traced_execute_ms"], a.sum["exp.execute_ms"]) - 1
	}},
}

// layerMetrics computes the per-layer metrics of a traced run.
func (r *report) layerMetrics(a *acc) {
	for _, m := range perLayer {
		r.set(m.name, m.value(a))
	}
}

// coverageRule asserts that a workload exercises a layer its why names
// and that the others leave it idle, so a silent fallback (bundled to
// exact, say) fails loudly instead of measuring a different program.
type coverageRule struct {
	what   string
	on     string
	active func(v map[string]float64) bool
	// onlyHere also requires the other workloads to leave it inactive.
	onlyHere bool
}

var coverage = []coverageRule{
	{"simfs.reads > 0", rg, func(v map[string]float64) bool { return v["simfs.reads"] > 0 }, true},
	{"fcoll.precombine_spans > 0", sh, func(v map[string]float64) bool { return v["fcoll.precombine_spans"] > 0 }, true},
	{"simnet.intra_mib > 0", sh, func(v map[string]float64) bool { return v["simnet.intra_mib"] > 0 }, false},
	{"exp.bundled_ratio == 1", sb, func(v map[string]float64) bool { return v["exp.bundled_ratio"] == 1 }, true},
	{"mpi.events == 0 (bundled executor, no exact fallback)", sb, func(v map[string]float64) bool { return v["mpi.events"] == 0 }, true},
	{"tune.* != 0", sh, func(v map[string]float64) bool {
		for k, x := range v {
			if strings.HasPrefix(k, "tune.") && x != 0 {
				return true
			}
		}
		return false
	}, true},
	{"mpi.fence_wait_ms > 0", pg, func(v map[string]float64) bool { return v["mpi.fence_wait_ms"] > 0 }, true},
}

func (r *report) checkCoverage() {
	for _, c := range coverage {
		here := r.workload == c.on
		switch got := c.active(r.values); {
		case here && !got:
			r.fail("coverage: %s should hold on %s", c.what, c.on)
		case !here && got && c.onlyHere:
			r.fail("coverage: %s holds on %s, but only %s should exercise it", c.what, r.workload, c.on)
		}
	}
}

// cell is one Execute op of a workload.
type cell struct {
	label string
	spec  exp.Spec
	// want is the byte count the op must report: the bytes its views
	// carry.
	want int64
}

// check applies the per-op correctness gate.
func (c *cell) check(r *report, res exp.Result, err error) bool {
	switch {
	case err != nil:
		r.fail("%s: %v", c.label, err)
	case res.BytesWritten != c.want:
		r.fail("%s: BytesWritten = %d, want %d", c.label, res.BytesWritten, c.want)
	default:
		return true
	}
	return false
}

// traceExec runs one op untraced, then decomposes it: it times, each in
// its own span, the layer calls Execute makes internally (views,
// instantiate, plan, cohort detection) plus the config digest, and
// reruns Execute with the probe and metrics sinks attached. The traced
// result must equal the untraced one. It returns the untraced and the
// traced host time.
func traceExec(r *report, tr *tracer, a *acc, c *cell) (untraced, traced time.Duration) {
	runtime.GC()
	t0 := time.Now()
	res, err := exp.Execute(c.spec)
	untraced = time.Since(t0)
	r.attempted++
	if !c.check(r, res, err) {
		return untraced, 0
	}
	tr.begin("bench", c.label)
	problems := decompose(tr, a, c, res, untraced)
	traced = tr.end()
	if len(problems) > 0 {
		r.fail("%s: %s", c.label, strings.Join(problems, "; "))
	}
	return untraced, traced
}

// decompose is traceExec's traced half; it returns what went wrong.
func decompose(tr *tracer, a *acc, c *cell, want exp.Result, untraced time.Duration) []string {
	spec := c.spec
	np := spec.NProcs
	pf := spec.Platform.ScaledTo(np)
	var problems []string
	var err error

	var views []*fcoll.JobView
	dViews := tr.do("workload", "Generator.Views", func() { views, err = spec.Gen.Views(np, false, viewSeed) })
	if err != nil {
		return append(problems, "views: "+err.Error())
	}
	var extents, userBytes int64
	for _, jv := range views {
		for _, rv := range jv.Ranks {
			extents += int64(len(rv.Extents))
		}
		userBytes += jv.TotalBytes()
	}

	dInst := tr.do("platform", "Platform.Instantiate", func() {
		if spec.Bundle {
			_, err = pf.InstantiateBundled(np, spec.Seed)
		} else {
			_, err = pf.Instantiate(np, spec.Seed)
		}
	})
	if err != nil {
		problems = append(problems, "instantiate: "+err.Error())
	}

	// The plan is what Execute builds per view; the hierarchical family
	// has no read-only schedule.
	var dPlan time.Duration
	if !spec.Hierarchical {
		opts := fcoll.Options{Algorithm: spec.Algorithm, Primitive: spec.Primitive,
			BufferSize: spec.BufferSize, Aggregators: spec.Aggregators}
		if opts.BufferSize == 0 {
			opts.BufferSize = 32 << 20
		}
		scheds := make([]*fcoll.Schedule, 0, len(views))
		dPlan = tr.do("fcoll", "BuildSchedule", func() {
			for _, jv := range views {
				var s *fcoll.Schedule
				if s, err = fcoll.BuildSchedule(jv, np, pf.RanksPerNode, opts); err != nil {
					return
				}
				scheds = append(scheds, s)
			}
		})
		if err != nil {
			problems = append(problems, "plan: "+err.Error())
		}
		var sends int64
		tr.do("fcoll", "Schedule.EachSend", func() {
			for _, s := range scheds {
				for r := 0; r < np; r++ {
					for cy := 0; cy < s.NCycles(); cy++ {
						s.EachSend(r, cy, func(int, int64, int) { sends++ })
					}
				}
			}
		})
		a.add("fcoll.plan_sends", float64(sends))
		if spec.Bundle {
			dCoh := tr.do("fcoll", "DetectCohorts", func() {
				for _, s := range scheds {
					a.add("fcoll.cohorts", float64(fcoll.DetectCohorts(s).Count()))
					a.add("fcoll.cohort_ranks", float64(np))
				}
			})
			a.add("fcoll.cohorts_ms", msOf(dCoh))
			dPlan += dCoh
		}
	}
	if spec.Bundle {
		var ok bool
		tr.do("exp", "Collapsible", func() { ok = exp.Collapsible(spec.Gen, spec.Platform, np) })
		a.add("exp.bundle_requested", 1)
		if ok {
			a.add("exp.bundle_collapsed", 1)
		}
	}
	dDigest := tr.do("exp", "Config.Digest", func() {
		var cfg exp.Config
		if cfg, err = spec.Config(); err == nil {
			_, err = cfg.Digest()
		}
	})
	if err != nil {
		problems = append(problems, "digest: "+err.Error())
	}
	a.add("exp.digest_us", float64(dDigest)/float64(time.Microsecond))
	a.add("exp.digests", 1)

	pb, met := probe.New(), metrics.New(0)
	ts := spec
	ts.Probe, ts.Metrics = pb, met
	var got exp.Result
	runtime.GC()
	dExec := tr.do("exp", "Execute", func() { got, err = exp.Execute(ts) })
	if err != nil {
		return append(problems, "traced execute: "+err.Error())
	}
	if got.Elapsed != want.Elapsed || got.ShuffleTime != want.ShuffleTime ||
		got.WriteTime != want.WriteTime || got.BytesWritten != want.BytesWritten {
		problems = append(problems, fmt.Sprintf("observers changed the result: traced %+v, untraced %+v", got, want))
	}
	var att export.Attribution
	tr.do("observe", "export.Attribute", func() { att = export.Attribute(pb) })

	// Counters, checked and accumulated outside any span.
	ctr := pb.Counters()
	if spec.Read {
		if fsr := ctr.Get(probe.CtrFSReadBytes); fsr != userBytes || want.BytesWritten != userBytes {
			problems = append(problems, fmt.Sprintf("bytes not conserved: user %d, read %d, fs.read_bytes %d",
				userBytes, want.BytesWritten, fsr))
		}
	} else {
		u, w, f := ctr.Get(probe.CtrCollUserBytes), ctr.Get(probe.CtrCollWriteBytes), ctr.Get(probe.CtrFSWriteBytes)
		if u != userBytes || w != u || f != u {
			problems = append(problems, fmt.Sprintf("bytes not conserved: views %d, fcoll.user_bytes %d, fcoll.write_bytes %d, fs.write_bytes %d",
				userBytes, u, w, f))
		}
	}

	a.ops++
	a.add("workload.views_ms", msOf(dViews))
	a.add("workload.extents", float64(extents))
	a.add("platform.instantiate_ms", msOf(dInst))
	a.add("fcoll.plan_ms", msOf(dPlan))
	a.add("exp.execute_ms", msOf(untraced))
	a.add("observe.traced_execute_ms", msOf(dExec))
	self := untraced - dViews - dInst - dPlan
	a.add("exp.run_self_ms", msOf(self))
	a.add("exp.run_self_ns", float64(self))

	a.add("fcoll.cycles", float64(got.Cycles))
	a.add("fcoll.shuffle_mib", mib(ctr.Get(probe.CtrCollShufBytes)))
	a.add("fcoll.write_mib", mib(ctr.Get(probe.CtrCollWriteBytes)))
	a.add("fcoll.shuffle_sim_ms", simMS(got.ShuffleTime))
	a.add("fcoll.write_sim_ms", simMS(got.WriteTime))
	a.add("fcoll.elapsed_sim_ms", simMS(got.Elapsed))
	a.add("fcoll.stall_in_write_ms", simMS(att.Sum.StallInWrite))
	a.add("sim.kernel_depth_peak", float64(met.Gauge(metrics.KernelDepth, metrics.ModeMax).Peak()))

	layer := pb.LayerCounts()
	a.add("simnet.events", float64(layer[probe.LayerNet]))
	a.add("mpi.events", float64(layer[probe.LayerMPI]))
	a.add("simfs.events", float64(layer[probe.LayerFS]))
	a.add("observe.probe_events", float64(len(pb.Events())))
	for _, ev := range pb.Events() {
		if ev.Kind == probe.KindPhase && ev.Cause == probe.CausePreCombine {
			a.add("fcoll.precombine_spans", 1)
		}
	}

	a.add("simnet.msgs", float64(ctr.Get(probe.CtrNetMsgs)))
	a.add("simnet.inter_mib", mib(ctr.Get(probe.CtrNetInterBytes)))
	a.add("simnet.intra_mib", mib(ctr.Get(probe.CtrNetIntraBytes)))
	a.add("mpi.eager_msgs", float64(ctr.Get(probe.CtrMPIEagerMsgs)))
	a.add("mpi.rdv_msgs", float64(ctr.Get(probe.CtrMPIRdvMsgs)))
	a.add("mpi.stall_ms", simMS(sim.Time(ctr.Get(probe.CtrMPIStallNS))))
	a.add("mpi.fence_wait_ms", simMS(sim.Time(ctr.Get(probe.CtrMPIFenceNS))))
	a.max("mpi.unexpected_peak", float64(ctr.Get(probe.CtrMPIUnexpPeak)))
	a.add("simfs.writes", float64(ctr.Get(probe.CtrFSWrites)))
	a.add("simfs.write_mib", mib(ctr.Get(probe.CtrFSWriteBytes)))
	a.add("simfs.reads", float64(ctr.Get(probe.CtrFSReads)))
	a.add("simfs.read_mib", mib(ctr.Get(probe.CtrFSReadBytes)))

	// Busy fractions: busy time summed over a resource's series, over
	// the series count times the makespan.
	for _, g := range met.Gauges() {
		name := g.Name()
		switch {
		case strings.HasPrefix(name, "link.") && strings.HasSuffix(name, ".tx_busy_ns"):
			a.add("simnet.link_busy_ns", float64(g.Total()))
			a.add("simnet.link_cap_ns", float64(got.Elapsed))
		case strings.HasPrefix(name, "ost.") && strings.HasSuffix(name, ".busy_ns"):
			a.add("simfs.ost_busy_ns", float64(g.Total()))
			a.add("simfs.ost_cap_ns", float64(got.Elapsed))
		}
	}
	return problems
}
