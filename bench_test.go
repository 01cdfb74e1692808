// Benchmark harness: one testing.B benchmark per table and figure of
// the reproduced paper's evaluation section, plus ablation benchmarks
// for the design choices called out in DESIGN.md.
//
// Each benchmark runs full simulations and reports the *virtual*
// execution time as "sim-ms/op" — the quantity the paper's plots show —
// alongside Go's own wall-clock numbers (which measure the simulator,
// not the modelled system). Process counts are scaled down so the whole
// suite completes in minutes; cmd/evalsuite regenerates the full
// artifacts.
//
//	go test -bench=. -benchmem
package collio_test

import (
	"fmt"
	"testing"

	"collio"
	"collio/internal/exp"
	"collio/internal/fcoll"
	"collio/internal/platform"
	"collio/internal/sim"
	"collio/internal/workload"
	"collio/internal/workload/flashio"
	"collio/internal/workload/ior"
	"collio/internal/workload/tileio"
)

// benchNP is the benchmark process count: small enough for fast
// iterations, large enough for multi-node behaviour on both platforms.
const benchNP = 48

func benchSpec(b *testing.B, spec exp.Spec) {
	b.Helper()
	b.ReportAllocs()
	var total sim.Time
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		m, err := exp.Execute(spec)
		if err != nil {
			b.Fatal(err)
		}
		total += m.Elapsed
	}
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "sim-ms/op")
}

func benchGens() []struct {
	name string
	gen  workload.Generator
} {
	return []struct {
		name string
		gen  workload.Generator
	}{
		{"IOR", ior.Config{BlockSize: 8 << 20, Segments: 1}},
		{"Tile256", tileio.Config{ElemSize: 256, ElemsX: 128, ElemsY: 128, Label: "tileio-256"}},
		{"Tile1M", tileio.Config{ElemSize: 1 << 20, ElemsX: 4, ElemsY: 4, Label: "tileio-1M"}},
		{"Flash", flashio.Config{NXB: 8, NYB: 8, NZB: 8, BytesPerCell: 8, BlocksPerProc: 64, BlockJitter: 8, NumVars: 3}},
	}
}

// BenchmarkTable1 regenerates Table I's measurement grid: every overlap
// algorithm on every benchmark on both platforms. The table itself
// (win counts) is derived from these series by cmd/evalsuite.
func BenchmarkTable1(b *testing.B) {
	for _, pf := range platform.Platforms() {
		for _, g := range benchGens() {
			for _, algo := range fcoll.Algorithms {
				name := fmt.Sprintf("%s/%s/%v", pf.Name, g.name, algo)
				b.Run(name, func(b *testing.B) {
					benchSpec(b, exp.Spec{
						Platform: pf, NProcs: benchNP,
						Gen: g.gen, Algorithm: algo,
					})
				})
			}
		}
	}
}

// BenchmarkFig1 regenerates Figure 1's series: Tile I/O 1M per
// algorithm at two process counts on both platforms.
func BenchmarkFig1(b *testing.B) {
	gen := tileio.Config{ElemSize: 1 << 20, ElemsX: 4, ElemsY: 4, Label: "tileio-1M"}
	for _, pf := range platform.Platforms() {
		for _, np := range []int{benchNP, 2 * benchNP} {
			for _, algo := range fcoll.Algorithms {
				name := fmt.Sprintf("%s/np%d/%v", pf.Name, np, algo)
				b.Run(name, func(b *testing.B) {
					benchSpec(b, exp.Spec{
						Platform: pf, NProcs: np,
						Gen: gen, Algorithm: algo,
					})
				})
			}
		}
	}
}

// BenchmarkFig23 regenerates the Figure 2/3 comparisons (improvement
// over no-overlap per platform); the relative improvement is derived
// from these times by cmd/evalsuite.
func BenchmarkFig23(b *testing.B) {
	gen := ior.Config{BlockSize: 8 << 20, Segments: 1}
	for _, pf := range platform.Platforms() {
		for _, algo := range fcoll.Algorithms {
			name := fmt.Sprintf("%s/%v", pf.Name, algo)
			b.Run(name, func(b *testing.B) {
				benchSpec(b, exp.Spec{
					Platform: pf, NProcs: benchNP,
					Gen: gen, Algorithm: algo,
				})
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4's series: the three shuffle
// transfer primitives under the Write-Comm-2 algorithm on the §IV-B
// benchmarks.
func BenchmarkFig4(b *testing.B) {
	for _, pf := range platform.Platforms() {
		for _, g := range benchGens() {
			if g.name == "Flash" {
				continue // §IV-B uses IOR and Tile I/O only
			}
			for _, prim := range fcoll.Primitives {
				name := fmt.Sprintf("%s/%s/%v", pf.Name, g.name, prim)
				b.Run(name, func(b *testing.B) {
					benchSpec(b, exp.Spec{
						Platform: pf, NProcs: benchNP,
						Gen: g.gen, Algorithm: fcoll.WriteComm2Overlap,
						Primitive: prim,
					})
				})
			}
		}
	}
}

// BenchmarkBreakdown regenerates the §IV-A analysis run (no-overlap
// Tile I/O 1M, instrumented shuffle/write split).
func BenchmarkBreakdown(b *testing.B) {
	gen := tileio.Config{ElemSize: 1 << 20, ElemsX: 4, ElemsY: 4, Label: "tileio-1M"}
	for _, pf := range platform.Platforms() {
		b.Run(pf.Name, func(b *testing.B) {
			b.ReportAllocs()
			var comm, io sim.Time
			for i := 0; i < b.N; i++ {
				m, err := exp.Execute(exp.Spec{
					Platform: pf, NProcs: benchNP,
					Gen: gen, Algorithm: fcoll.NoOverlap,
					Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				comm += m.ShuffleTime
				io += m.WriteTime
			}
			tot := float64(comm + io)
			b.ReportMetric(100*float64(comm)/tot, "comm-%")
			b.ReportMetric(100*float64(io)/tot, "io-%")
		})
	}
}

// BenchmarkAblationLayout compares the file-domain strategies (the
// contiguous default vs round-robin stripe-aligned windows) — the
// design choice DESIGN.md calls out for the baseline's lockstep
// behaviour.
func BenchmarkAblationLayout(b *testing.B) {
	gen := tileio.Config{ElemSize: 1 << 20, ElemsX: 4, ElemsY: 4, Label: "tileio-1M"}
	for _, layout := range []fcoll.DomainLayout{fcoll.ContiguousDomains, fcoll.RoundRobinWindows} {
		b.Run(layout.String(), func(b *testing.B) {
			b.ReportAllocs()
			var total sim.Time
			for i := 0; i < b.N; i++ {
				cl, err := platform.Ibex().Instantiate(benchNP, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				views, err := gen.Views(benchNP, false, 1)
				if err != nil {
					b.Fatal(err)
				}
				file := collio.OpenFile(cl.World, cl.FS.Open("ablation"))
				opts := collio.DefaultOptions()
				opts.Algorithm = collio.WriteOverlap
				opts.Layout = layout
				file.SetCollectiveOptions(opts)
				cl.World.Launch(func(r *collio.Rank) {
					if _, err := file.WriteAll(r, views[0]); err != nil {
						b.Errorf("%v", err)
					}
				})
				cl.Kernel.Run()
				total += cl.World.Elapsed()
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "sim-ms/op")
		})
	}
}

// BenchmarkAblationProgressThread measures the effect of an
// asynchronous progress thread on the Comm-Overlap algorithm — the
// paper's §III-A.1 hypothesis that comm overlap is limited by library
// progress.
func BenchmarkAblationProgressThread(b *testing.B) {
	gen := ior.Config{BlockSize: 8 << 20, Segments: 1}
	for _, progress := range []bool{false, true} {
		name := "without-progress-thread"
		if progress {
			name = "with-progress-thread"
		}
		b.Run(name, func(b *testing.B) {
			pf := platform.Crill()
			pf.ProgressThread = progress
			benchSpec(b, exp.Spec{
				Platform: pf, NProcs: benchNP,
				Gen: gen, Algorithm: fcoll.CommOverlap,
			})
		})
	}
}

// BenchmarkAblationBufferSize sweeps the collective buffer size — the
// knob that trades cycle count against sub-buffer size (ompio default
// 32 MiB).
func BenchmarkAblationBufferSize(b *testing.B) {
	gen := ior.Config{BlockSize: 8 << 20, Segments: 1}
	for _, mb := range []int64{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("%dMiB", mb), func(b *testing.B) {
			benchSpec(b, exp.Spec{
				Platform: platform.Ibex(), NProcs: benchNP,
				Gen: gen, Algorithm: fcoll.WriteOverlap,
				BufferSize: mb << 20,
			})
		})
	}
}

// BenchmarkAblationAggregators sweeps the aggregator count around the
// automatic (one-per-node) selection.
func BenchmarkAblationAggregators(b *testing.B) {
	gen := tileio.Config{ElemSize: 1 << 20, ElemsX: 4, ElemsY: 4, Label: "tileio-1M"}
	for _, aggs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("aggs%d", aggs), func(b *testing.B) {
			b.ReportAllocs()
			var total sim.Time
			for i := 0; i < b.N; i++ {
				cl, err := platform.Ibex().Instantiate(benchNP, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				views, err := gen.Views(benchNP, false, 1)
				if err != nil {
					b.Fatal(err)
				}
				file := collio.OpenFile(cl.World, cl.FS.Open("aggs"))
				opts := collio.DefaultOptions()
				opts.Algorithm = collio.WriteOverlap
				opts.Aggregators = aggs
				file.SetCollectiveOptions(opts)
				cl.World.Launch(func(r *collio.Rank) {
					if _, err := file.WriteAll(r, views[0]); err != nil {
						b.Errorf("%v", err)
					}
				})
				cl.Kernel.Run()
				total += cl.World.Elapsed()
			}
			b.ReportMetric(float64(total)/float64(b.N)/1e6, "sim-ms/op")
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself (events
// per wall second) on a communication-heavy pattern — useful when
// sizing full-sweep runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	gen := tileio.Config{ElemSize: 256, ElemsX: 64, ElemsY: 64, Label: "tileio-256"}
	benchSpec(b, exp.Spec{
		Platform: platform.Crill(), NProcs: benchNP,
		Gen: gen, Algorithm: fcoll.WriteComm2Overlap,
	})
}
