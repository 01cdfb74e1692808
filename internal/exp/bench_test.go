package exp

import (
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/simnet"
	"collio/internal/workload/tileio"
)

// benchSpec is a small-but-real collective write: large enough that a
// run amortizes pool overhead, small enough that -bench stays quick.
func benchSpec() Spec {
	return Spec{
		Platform:  platform.Crill(),
		NProcs:    16,
		Gen:       smallIOR(),
		Algorithm: fcoll.WriteComm2Overlap,
	}
}

// benchSeries runs an 8-run series per iteration at the given
// parallelism. Comparing the Sequential and Parallel variants measures
// the pool's scaling on the host (on a single-core machine they tie).
func benchSeries(b *testing.B, parallel int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSeriesP(benchSpec(), 8, 1, parallel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSeriesSequential(b *testing.B) { benchSeries(b, 1) }

func BenchmarkRunSeriesParallel(b *testing.B) { benchSeries(b, 0) } // every core

// BenchmarkScaleSweep runs one 1024-rank point of the scale sweep — the
// smallest multi-thousand-rank simulation. ns/op here is the wall-clock
// the flat-plan and pooled-protocol work targets; allocs/op is dominated
// by the per-rank goroutine stacks, so watch bytes/op for pool leaks.
func BenchmarkScaleSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(ScaleSpec(1024, fcoll.WriteComm2Overlap, 1<<20, 17)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableISweep measures the full sweep driver at fixed worker
// counts on a scaled-down grid (the j4/j1 ratio is the harness's
// speedup; on a single-core host the variants tie).
func BenchmarkTableISweep(b *testing.B) {
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			cfg := SweepConfig{
				Platforms:  platform.Platforms(),
				ProcCounts: []int{16},
				Benchmarks: []BenchCase{{Group: "IOR", Gen: smallIOR()}},
				Runs:       2,
				SeedBase:   1000,
				Parallel:   j,
			}
			for i := 0; i < b.N; i++ {
				if _, err := RunTableISweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCohortScale pins the bundled cohort executor against the
// flat (exact per-rank) executor on the deterministic ibex scale point,
// crossed with the two network models. ns/op is the host wall-clock the
// cohort work targets: the bundled/flat ratio at one rank count is the
// speedup from collapsing non-aggregator ranks into event wiring, and
// the flow/chunked ratio within the bundled variants is the fluid
// model's win over per-chunk event trains. sim-ms/op differs between
// bundled and flat by design (the bundled path is tolerance-validated,
// not digest-identical; see DESIGN.md §14) but must be stable run to
// run. The flat 65536-rank cells are skipped: 65536 ranks exceed the
// physical ibex model (4320), which is precisely the regime the bundled
// executor exists for.
func BenchmarkCohortScale(b *testing.B) {
	for _, np := range []int{4096, 65536} {
		for _, mode := range []string{"bundled", "flat"} {
			for _, nm := range []simnet.NetModel{simnet.ModelChunked, simnet.ModelFlow} {
				b.Run(fmt.Sprintf("np%d/%s/%s", np, mode, nm), func(b *testing.B) {
					if mode == "flat" && np > platform.Ibex().MaxProcs() {
						b.Skipf("np %d exceeds the physical ibex model (%d ranks); flat execution is bundled-only territory",
							np, platform.Ibex().MaxProcs())
					}
					spec := BundledScaleSpec(np, fcoll.WriteComm2Overlap, 1<<20, 17, nm)
					if mode == "flat" {
						spec.Bundle = false
					}
					b.ReportAllocs()
					var simNS int64
					for i := 0; i < b.N; i++ {
						m, err := Execute(spec)
						if err != nil {
							b.Fatal(err)
						}
						simNS = int64(m.Elapsed)
					}
					b.ReportMetric(float64(simNS)/1e6, "sim-ms/op")
				})
			}
		}
	}
}

// BenchmarkHierarchicalSweep pins the two-level family against the flat
// family end to end on the deterministic crill model with the
// fragmented tileio-256 workload — the regime the pre-combine phase
// targets (many sub-eager requests per cycle). ns/op on the hier
// variant is the host cost of the hierarchical plan build plus the
// leader store-and-forward per run; the hier/flat ratio is the host
// overhead the family adds. sim-ms/op must be stable run to run
// (deterministic platform) and lower for hier in this cell when the
// combine win holds.
func BenchmarkHierarchicalSweep(b *testing.B) {
	for _, mode := range []string{"flat", "hier"} {
		b.Run(mode, func(b *testing.B) {
			spec := Spec{
				Platform:     platform.Crill().Deterministic(),
				NProcs:       192,
				Gen:          tileio.Tile256(),
				Algorithm:    fcoll.WriteComm2Overlap,
				Primitive:    fcoll.TwoSided,
				Hierarchical: mode == "hier",
				Seed:         17,
			}
			b.ReportAllocs()
			var simNS int64
			for i := 0; i < b.N; i++ {
				m, err := Execute(spec)
				if err != nil {
					b.Fatal(err)
				}
				simNS = int64(m.Elapsed)
			}
			b.ReportMetric(float64(simNS)/1e6, "sim-ms/op")
		})
	}
}
