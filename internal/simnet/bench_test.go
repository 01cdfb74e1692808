package simnet

import (
	"testing"

	"collio/internal/sim"
)

// benchSend measures one simulated message through the network layer:
// the transfer handle from the pool, the port submissions, the
// completion chain and the events that serve them. Sends go out in
// batches of 64 so the ports see queueing, and each handle returns to
// the pool at its call site, as the MPI layer does.
func benchSend(b *testing.B, from, to int) {
	const batch = 64
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	for i := 0; i < b.N; i++ {
		n.Release(n.Send(from, to, 4096))
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
