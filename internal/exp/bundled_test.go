package exp

import (
	"testing"
	"time"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/simnet"
	"collio/internal/trace"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// bundledTolerance is the accepted relative makespan deviation between
// the bundled cohort executor and the exact per-rank executor. The
// bundled path models the collective ladders (setup allgatherv, cycle
// alltoall, final barrier) in closed form and batches member traffic
// per node, so it is an approximation by construction; DESIGN.md §14
// derives where the error comes from. Both executors run the same
// fcoll.Drive algorithm drivers; the bound is tight enough that a
// divergence in the bundled substitutes (a missing overlap, a
// serialized write) blows through it, and TestBundledGolden pins the
// bundled output bit for bit besides. The
// worst observed cell is comm-overlap at ~11% (the member bundle keeps
// one cycle of sends in flight where exact members pipeline two); see
// DESIGN.md §14 for the full deviation table.
const bundledTolerance = 0.12

// flowTolerance bounds the fluid model against the chunked reference on
// the same executor: the fluid model ignores packetisation and chunk
// round-trips, so large transfers finish slightly early under
// contention. DESIGN.md §14 documents the model gap.
const flowTolerance = 0.15

func relDev(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

// bundledCell is one cell of the DESIGN.md §14 bundled matrix.
type bundledCell struct {
	name string
	spec Spec
}

// bundledMatrix enumerates the DESIGN.md §14 matrix: both deterministic
// platforms × the three regular workloads × every overlap algorithm at
// four nodes, seed 1.
func bundledMatrix() []bundledCell {
	gens := []struct {
		name string
		gen  workload.Generator
	}{
		// One segment: with the segment pattern repeated, the
		// aggregator-relative node deltas differ between nodes and the
		// workload (correctly) does not collapse — TestCohortFallback
		// covers that side.
		{"ior", ior.Config{BlockSize: 8 << 20, Segments: 1}},
		{"tileio", tileio.Config{ElemSize: 1 << 16, ElemsX: 16, ElemsY: 8, Label: "t"}},
		{"flashio", flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8, BlocksPerProc: 8, NumVars: 2}},
	}
	var out []bundledCell
	for _, pf := range []platform.Platform{platform.Crill().Deterministic(), platform.Ibex().Deterministic()} {
		for _, g := range gens {
			for _, algo := range fcoll.AllAlgorithms {
				out = append(out, bundledCell{pf.Name + "/" + g.name + "/" + algo.String(), Spec{
					Platform: pf,
					// Four-plus nodes: cohorts are node slots, so the
					// collapse test (cohorts ≤ non-aggregators/2) needs
					// each slot to repeat across several nodes.
					NProcs:    4 * pf.RanksPerNode,
					Gen:       g.gen,
					Algorithm: algo,
					Seed:      1,
				}})
			}
		}
	}
	return out
}

// TestBundledMatchesExactTolerance runs the bundled executor against
// the exact executor over every overlap algorithm and all three
// regular workloads on both platforms, and requires the makespan and
// the phase breakdown to agree within bundledTolerance.
func TestBundledMatchesExactTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("bundled-vs-exact sweep is long")
	}
	for _, cell := range bundledMatrix() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			spec, algo := cell.spec, cell.spec.Algorithm
			exact, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Bundle = true
			bundled, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if bundled.BytesWritten != exact.BytesWritten {
				t.Fatalf("bytes written: bundled %d, exact %d", bundled.BytesWritten, exact.BytesWritten)
			}
			if bundled.Cycles != exact.Cycles || bundled.Aggregators != exact.Aggregators {
				t.Fatalf("plan shape: bundled %d cycles/%d aggs, exact %d/%d",
					bundled.Cycles, bundled.Aggregators, exact.Cycles, exact.Aggregators)
			}
			if d := relDev(float64(bundled.Elapsed), float64(exact.Elapsed)); d > bundledTolerance {
				t.Errorf("elapsed: bundled %v, exact %v (dev %.1f%% > %.0f%%)",
					bundled.Elapsed, exact.Elapsed, 100*d, 100*bundledTolerance)
			}
			// Phase wait accounting is only comparable where the
			// algorithm has no overlap to shift waits between
			// phases: the bundled aggregator reaches its waits at
			// slightly different instants than the exact rank, so
			// under overlap the same end-to-end schedule divides
			// into different wait spans (DESIGN.md §14).
			if algo == fcoll.NoOverlap {
				if d := relDev(float64(bundled.WriteTime), float64(exact.WriteTime)); d > bundledTolerance {
					t.Errorf("write time: bundled %v, exact %v (dev %.1f%%)",
						bundled.WriteTime, exact.WriteTime, 100*d)
				}
			}
		})
	}
}

// TestBundledRejectsUnknownAlgorithm: the bundled path reports an
// unknown algorithm as an error, as the exact path does.
func TestBundledRejectsUnknownAlgorithm(t *testing.T) {
	spec := bundledMatrix()[0].spec
	spec.Bundle = true
	spec.Algorithm = fcoll.Algorithm(99)
	if _, err := Execute(spec); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestCohortFallback proves the silent-fallback contract: a workload
// with per-rank load imbalance (FLASH's AMR jitter) does not collapse
// into cohorts, so Bundle=true must take the exact path and produce a
// bit-identical trace digest — not an approximation.
func TestCohortFallback(t *testing.T) {
	spec := Spec{
		Platform:  platform.Crill().Deterministic(),
		NProcs:    32,
		Gen:       flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8, BlocksPerProc: 8, BlockJitter: 4, NumVars: 2},
		Algorithm: fcoll.WriteComm2Overlap,
		Seed:      1,
	}
	// The premise: this workload really is asymmetric.
	views, err := spec.Gen.Views(spec.NProcs, false, workloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fcoll.BuildSchedule(views[0], spec.NProcs, spec.Platform.RanksPerNode,
		fcoll.Options{Algorithm: spec.Algorithm, BufferSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if fcoll.DetectCohorts(sched).Collapses() {
		t.Fatal("jittered flashio collapsed into cohorts; fallback premise broken")
	}
	digest := func(bundle bool) string {
		rec := trace.New()
		s := spec
		s.Bundle = bundle
		s.Trace = rec
		if _, err := Execute(s); err != nil {
			t.Fatal(err)
		}
		return rec.Digest()
	}
	if on, off := digest(true), digest(false); on != off {
		t.Fatalf("asymmetric spec with Bundle=true diverged from exact path:\n  on:  %s\n  off: %s", on, off)
	}
}

// TestBundledDeterminism: two bundled runs of the same spec are
// bit-identical in every reported metric and in the trace digest.
func TestBundledDeterminism(t *testing.T) {
	spec := Spec{
		Platform:  platform.Ibex().Deterministic(),
		NProcs:    80,
		Gen:       ior.Config{BlockSize: 4 << 20, Segments: 1},
		Algorithm: fcoll.WriteCommOverlap,
		Bundle:    true,
		Seed:      7,
	}
	run := func() (Metrics, string) {
		rec := trace.New()
		s := spec
		s.Trace = rec
		m, err := Execute(s)
		if err != nil {
			t.Fatal(err)
		}
		return m, rec.Digest()
	}
	m1, d1 := run()
	m2, d2 := run()
	if m1 != m2 {
		t.Fatalf("bundled metrics not deterministic:\n  %+v\n  %+v", m1, m2)
	}
	if d1 != d2 {
		t.Fatalf("bundled trace digest not deterministic: %s vs %s", d1, d2)
	}
}

// TestFlowVsChunkedTolerance compares the fluid network model against
// the chunked reference on the exact executor (same ranks, same plan,
// only the transfer model differs) and bounds the makespan deviation.
func TestFlowVsChunkedTolerance(t *testing.T) {
	for _, algo := range []fcoll.Algorithm{fcoll.NoOverlap, fcoll.WriteComm2Overlap} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			spec := Spec{
				Platform:  platform.Crill().Deterministic(),
				NProcs:    96,
				Gen:       ior.Config{BlockSize: 4 << 20, Segments: 1},
				Algorithm: algo,
				Seed:      1,
			}
			chunked, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Platform.NetModel = simnet.ModelFlow
			flow, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if flow.BytesWritten != chunked.BytesWritten {
				t.Fatalf("bytes written: flow %d, chunked %d", flow.BytesWritten, chunked.BytesWritten)
			}
			if d := relDev(float64(flow.Elapsed), float64(chunked.Elapsed)); d > flowTolerance {
				t.Errorf("elapsed: flow %v, chunked %v (dev %.1f%% > %.0f%%)",
					flow.Elapsed, chunked.Elapsed, 100*d, 100*flowTolerance)
			}
		})
	}
}

// TestPinnedDigestsBundleFallback re-runs the frozen PR 3 spec matrix
// with Bundle=true. Every pinned spec carries platform noise, which the
// bundled gate must refuse — so the digests must stay bit-identical to
// the pinned table. This is the "bundling off/on" extension of the
// pinned matrix: it proves the Bundle flag can be left on in sweeps
// without silently degrading any spec the fast path cannot certify.
func TestPinnedDigestsBundleFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned matrix replay is long")
	}
	specs := pinnedSpecs()
	for i, s := range specs {
		s, want := s, pinnedDigests[i]
		t.Run(s.name, func(t *testing.T) {
			rec := trace.New()
			spec := s.spec
			spec.Bundle = true
			spec.Trace = rec
			if _, err := Execute(spec); err != nil {
				t.Fatal(err)
			}
			if got := rec.Digest(); got != want.digest {
				t.Errorf("Bundle=true moved a pinned digest (the eligibility gate leaked an approximation):\n  got:  %s\n  want: %s",
					got, want.digest)
			}
		})
	}
}

// TestScaleSmoke65k is the acceptance smoke for the scale path: a
// 65536-rank IOR collective write must complete on the bundled executor
// in well under ten seconds of wall time (`make scale-smoke` runs this
// with the budget enforced; here we assert completion and sanity).
func TestScaleSmoke65k(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-rank smoke is a scale test")
	}
	start := time.Now()
	spec := Spec{
		Platform:  platform.Crill().Deterministic(),
		NProcs:    65536,
		Gen:       ior.Config{BlockSize: 1 << 20, Segments: 1},
		Algorithm: fcoll.WriteComm2Overlap,
		Bundle:    true,
		Seed:      1,
	}
	spec.Platform.NetModel = simnet.ModelFlow
	m, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.BytesWritten != 65536<<20 {
		t.Fatalf("bytes written = %d", m.BytesWritten)
	}
	if m.Elapsed <= 0 || m.WriteTime <= 0 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("65536-rank bundled run took %v wall, budget 10s", wall)
	}
	t.Logf("65536 ranks: simulated %v in %v wall (%d aggregators, %d cycles)",
		m.Elapsed, time.Since(start), m.Aggregators, m.Cycles)
}
