package mpi

import (
	"fmt"
	"testing"

	"collio/internal/probe"
)

// BenchmarkSetupExchange runs the collective write's setup collectives
// (fcoll's JobView.Control Setup: the bounds allreduce, the extent-count
// allreduce over the P-vector and the view allgatherv at 16 bytes per
// extent) on a fresh world per iteration, with one to four extents per
// rank, and reports the simulated instant the world goes quiet as
// sim-ms/op.
func BenchmarkSetupExchange(b *testing.B) {
	for _, np := range []int{96, 1024, 4096} {
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			setup := []Coll{
				{Op: probe.CauseAllreduce, Bytes: 16},
				{Op: probe.CauseAllreduce, Bytes: 8 * int64(np)},
				{Op: probe.CauseAllgatherv, Block: func(i int) int64 { return 16 * int64(1+i%4) }},
			}
			b.ReportAllocs()
			var sim float64
			for i := 0; i < b.N; i++ {
				k, w := testWorld(b, np, 4, 1, nil)
				w.Launch(func(r *Rank) {
					for _, c := range setup {
						r.Collective(c)
					}
				})
				k.Run()
				sim += float64(k.Now())
			}
			b.ReportMetric(sim/float64(b.N)/1e6, "sim-ms/op")
		})
	}
}
