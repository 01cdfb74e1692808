package exp

import (
	"fmt"
	"strings"
	"testing"

	"collio/internal/fcoll"
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

// TestParallelRunMatchesSequential is the determinism oracle of the
// conservative parallel executor: for every workload × platform × seed
// in the matrix, running the identical spec at -jrun 1, 2 and 4 must
// reproduce the sequential run bit-for-bit — the trace digest (which
// covers every span field including record order), the full probe event
// stream, and all probe counters.
func TestParallelRunMatchesSequential(t *testing.T) {
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
	for _, pc := range platforms {
		for _, gc := range gens {
			for _, seed := range []int64{1, 7, 23} {
				base := Spec{
					Platform:  pc.pf,
					NProcs:    32,
					Gen:       gc.gen,
					Algorithm: fcoll.WriteComm2Overlap,
					Seed:      seed,
				}
				if e, _ := ExecutorFor(withJRun(base, 2)); e != ParallelExecutor {
					t.Fatalf("%s/%s: spec unexpectedly not partitionable", pc.name, gc.name)
				}
				seq := base
				seq.Trace = trace.New()
				seq.Probe = probe.New()
				if _, err := Execute(seq); err != nil {
					t.Fatalf("%s/%s seed %d: sequential: %v", pc.name, gc.name, seed, err)
				}
				wantDigest := seq.Trace.Digest()
				wantCounters := countersDump(seq.Probe)
				wantEvents := seq.Probe.Events()
				for _, jrun := range []int{1, 2, 4} {
					par := base
					par.JRun = jrun
					par.Trace = trace.New()
					par.Probe = probe.New()
					if _, err := Execute(par); err != nil {
						t.Fatalf("%s/%s seed %d jrun %d: %v", pc.name, gc.name, seed, jrun, err)
					}
					name := fmt.Sprintf("%s/%s seed %d jrun %d", pc.name, gc.name, seed, jrun)
					if got := par.Trace.Digest(); got != wantDigest {
						for i := range seq.Trace.Spans {
							if i >= len(par.Trace.Spans) || seq.Trace.Spans[i] != par.Trace.Spans[i] {
								t.Fatalf("%s: trace digest mismatch; first divergence at span %d:\n  seq %+v\n  par %+v",
									name, i, seq.Trace.Spans[i], spanAt(par.Trace, i))
							}
						}
						t.Fatalf("%s: trace digest mismatch (parallel recorded %d spans, sequential %d)",
							name, len(par.Trace.Spans), len(seq.Trace.Spans))
					}
					gotEvents := par.Probe.Events()
					if len(gotEvents) != len(wantEvents) {
						t.Fatalf("%s: probe event count %d, want %d", name, len(gotEvents), len(wantEvents))
					}
					for i := range wantEvents {
						if gotEvents[i] != wantEvents[i] {
							t.Fatalf("%s: probe event %d diverges:\n  seq %+v\n  par %+v",
								name, i, wantEvents[i], gotEvents[i])
						}
					}
					if got := countersDump(par.Probe); got != wantCounters {
						t.Fatalf("%s: probe counters diverge:\n--- sequential ---\n%s--- parallel ---\n%s",
							name, wantCounters, got)
					}
				}
			}
		}
	}
}

func spanAt(tr *trace.Recorder, i int) interface{} {
	if i < len(tr.Spans) {
		return tr.Spans[i]
	}
	return "(missing)"
}

// TestParallelFallbackSequential pins the gate: specs the executor
// cannot run exactly (noisy platform, rendezvous pipelining, one-sided
// primitives, reads) silently fall back to sequential execution and
// still produce the sequential digest.
func TestParallelFallbackSequential(t *testing.T) {
	gen := ior.Config{BlockSize: 1 << 20, Segments: 2}
	noisy := platform.Crill() // default: noise + rendezvous pipelining
	noisy.RanksPerNode = 4
	base := Spec{Platform: noisy, NProcs: 16, Gen: gen,
		Algorithm: fcoll.WriteComm2Overlap, Seed: 9}
	if e, _ := ExecutorFor(withJRun(base, 4)); e != ExactExecutor {
		t.Fatalf("noisy spec must not be partitionable")
	}
	seq := base
	seq.Trace = trace.New()
	if _, err := Execute(seq); err != nil {
		t.Fatal(err)
	}
	par := base
	par.JRun = 4
	par.Trace = trace.New()
	if _, err := Execute(par); err != nil {
		t.Fatal(err)
	}
	if seq.Trace.Digest() != par.Trace.Digest() {
		t.Fatalf("fallback run diverged from sequential")
	}
}
