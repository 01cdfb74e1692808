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

// countersDump renders every global and per-rank counter of a probe in
// a canonical textual form, so two probes compare by string equality.
func countersDump(p *probe.Probe) string {
	var b strings.Builder
	g := p.Counters()
	b.WriteString(g.String())
	for _, name := range g.RankNames() {
		for _, r := range g.Ranks() {
			fmt.Fprintf(&b, "rank%d %s %d\n", r, name, g.RankValue(r, name))
		}
	}
	return b.String()
}

// metricsCase is one cell of metricsMatrix.
type metricsCase struct {
	name string
	spec Spec
}

// metricsMatrix is the workload × platform × seed grid of the
// telemetry equivalence tests.
func metricsMatrix() []metricsCase {
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
	for _, tc := range metricsMatrix() {
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
