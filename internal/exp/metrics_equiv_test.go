package exp

import (
	"fmt"
	"strings"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/metrics"
	"collio/internal/platform"
	"collio/internal/probe"
	"collio/internal/trace"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// metricsMatrix is the workload × platform × seed grid shared by the
// telemetry equivalence tests — the same grid the parallel-executor
// oracle (TestParallelRunMatchesSequential) runs on.
type metricsCase struct {
	name string
	spec Spec
}

func metricsMatrix(t *testing.T) []metricsCase {
	t.Helper()
	gens := []struct {
		name string
		gen  workload.Generator
	}{
		{"ior", ior.Config{BlockSize: 1 << 20, Segments: 2}},
		{"tileio", tileio.Config{ElemSize: 1 << 18, ElemsX: 4, ElemsY: 4, Label: "t"}},
		{"flashio", flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8,
			BlocksPerProc: 4, BlockJitter: 1, NumVars: 2}},
	}
	platforms := []struct {
		name string
		pf   platform.Platform
	}{
		{"crill", platform.Crill().Deterministic()},
		{"ibex", platform.Ibex().Deterministic()},
	}
	for i := range platforms {
		platforms[i].pf.RanksPerNode = 4
	}
	var cases []metricsCase
	for _, pc := range platforms {
		for _, gc := range gens {
			for _, seed := range []int64{1, 7, 23} {
				spec := Spec{
					Platform:  pc.pf,
					NProcs:    32,
					Gen:       gc.gen,
					Algorithm: fcoll.WriteComm2Overlap,
					Seed:      seed,
				}
				if e, _ := ExecutorFor(withJRun(spec, 2)); e != ParallelExecutor {
					t.Fatalf("%s/%s: spec unexpectedly not partitionable", pc.name, gc.name)
				}
				cases = append(cases, metricsCase{
					name: fmt.Sprintf("%s/%s seed %d", pc.name, gc.name, seed),
					spec: spec,
				})
			}
		}
	}
	return cases
}

// TestMetricsDigestInvariance is the zero-perturbation oracle of the
// telemetry layer: attaching a metrics sink must not change a single
// event — for every cell of the matrix, the trace digest, probe event
// stream and probe counters of a metrics-on run are bit-identical to
// the metrics-off baseline. The samplers only fold state at instants
// the kernel already produces (AddSpan at service edges, Then on
// already-existing futures), so any divergence here is a contract
// violation, not noise.
func TestMetricsDigestInvariance(t *testing.T) {
	for _, tc := range metricsMatrix(t) {
		base := tc.spec
		base.Trace = trace.New()
		base.Probe = probe.New()
		if _, err := Execute(base); err != nil {
			t.Fatalf("%s: baseline: %v", tc.name, err)
		}
		wantDigest := base.Trace.Digest()
		wantEvents := base.Probe.Events()
		wantCounters := countersDump(base.Probe)

		on := tc.spec
		on.Trace = trace.New()
		on.Probe = probe.New()
		on.Metrics = metrics.New(0)
		if _, err := Execute(on); err != nil {
			t.Fatalf("%s: metrics-on: %v", tc.name, err)
		}
		if got := on.Trace.Digest(); got != wantDigest {
			t.Fatalf("%s: attaching metrics changed the trace digest", tc.name)
		}
		gotEvents := on.Probe.Events()
		if len(gotEvents) != len(wantEvents) {
			t.Fatalf("%s: probe event count %d with metrics, %d without",
				tc.name, len(gotEvents), len(wantEvents))
		}
		for i := range wantEvents {
			if gotEvents[i] != wantEvents[i] {
				t.Fatalf("%s: probe event %d diverges with metrics attached:\n  off %+v\n  on  %+v",
					tc.name, i, wantEvents[i], gotEvents[i])
			}
		}
		if got := countersDump(on.Probe); got != wantCounters {
			t.Fatalf("%s: probe counters diverge with metrics attached", tc.name)
		}
		if on.Metrics.Dump() == "" {
			t.Fatalf("%s: metrics-on run recorded nothing", tc.name)
		}
	}
}

// stripKernelSeries drops the execution-level kernel.* gauge blocks
// from a canonical dump. The kernel event-queue depth is a property of
// the sequential executor (per-LP queues exist under partitioning), so
// it is excluded from the sequential-vs-parallel equality.
func stripKernelSeries(dump string) string {
	var b strings.Builder
	skip := false
	for _, line := range strings.SplitAfter(dump, "\n") {
		if strings.HasPrefix(line, "gauge ") || strings.HasPrefix(line, "hist ") {
			skip = strings.HasPrefix(line, "gauge kernel.")
		}
		if !skip && line != "" {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestMetricsShardMergeMatchesSequential pins the shard-merge algebra:
// under the conservative parallel executor each LP records into its
// own sink and the shards fold with commutative combiners, so the
// merged dump at any -jrun equals the sequential dump series-for-series
// and bucket-for-bucket (minus the sequential-only kernel.* series).
func TestMetricsShardMergeMatchesSequential(t *testing.T) {
	for _, tc := range metricsMatrix(t) {
		seq := tc.spec
		seq.Metrics = metrics.New(0)
		if _, err := Execute(seq); err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		want := stripKernelSeries(seq.Metrics.Dump())
		if want == "" {
			t.Fatalf("%s: sequential run recorded no model-layer series", tc.name)
		}
		for _, jrun := range []int{1, 2, 4} {
			par := tc.spec
			par.JRun = jrun
			par.Metrics = metrics.New(0)
			if _, err := Execute(par); err != nil {
				t.Fatalf("%s jrun %d: %v", tc.name, jrun, err)
			}
			got := stripKernelSeries(par.Metrics.Dump())
			if got != want {
				t.Fatalf("%s jrun %d: merged metrics dump diverges from sequential:\n--- sequential ---\n%s--- merged ---\n%s",
					tc.name, jrun, want, got)
			}
		}
	}
}
