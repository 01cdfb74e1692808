package simnet

import (
	"fmt"
	"math/rand"
	"testing"

	"collio/internal/sim"
)

// benchSend measures one simulated message through the network layer:
// the transfer handle from the pool, the port submissions, the
// completion chain and the events that serve them. Sends go out in
// batches of 64 so the ports see queueing, and each transfer returns to
// the pool at its delivery.
func benchSend(b *testing.B, from, to int) {
	const batch = 64
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	for i := 0; i < b.N; i++ {
		n.Send(from, to, 4096)
		if i%batch == batch-1 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkSend/inter crosses the wire (tx, then rx one latency later,
// joined); BenchmarkSend/intra goes through the node's ipc engine.
func BenchmarkSend(b *testing.B) {
	b.Run("inter", func(b *testing.B) { benchSend(b, 0, 1) })
	b.Run("intra", func(b *testing.B) { benchSend(b, 2, 2) })
}

// BenchmarkFluidRecompute measures one max-min rate recomputation of the
// fluid solver (fluidNet.recompute, the progressive filling run at
// every flow arrival and departure) with N concurrent flows on 64
// nodes: seeded random inter-node pairs plus one intra-node flow in
// eight, so tx, rx and ipc links all contend. The flows are submitted
// through Send and the kernel never runs, so every iteration
// recomputes the same flow set.
func BenchmarkFluidRecompute(b *testing.B) {
	for _, flows := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("flows%d", flows), func(b *testing.B) {
			const nodes = 64
			k := sim.NewKernel(1)
			n := New(k, Config{
				Nodes: nodes, InterBandwidth: 3e9, InterLatency: sim.Microsecond,
				IntraBandwidth: 6e9, IntraLatency: 300 * sim.Nanosecond,
				MemBandwidth: 8e9, NetModel: ModelFlow,
			})
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < flows; i++ {
				from, to := rng.Intn(nodes), rng.Intn(nodes)
				if i%8 == 0 {
					to = from
				}
				n.Send(from, to, 1<<20+int64(rng.Intn(1<<20)))
			}
			if got := len(n.fluid.flows); got != flows {
				b.Fatalf("%d fluid flows, want %d", got, flows)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.fluid.recompute()
			}
		})
	}
}
