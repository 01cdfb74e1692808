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

// BenchmarkFluidRecompute measures one full max-min rate recomputation
// of the fluid solver: every link holding a flow marked dirty, so the
// step's component walk and progressive filling (fluidNet.rerate) cover
// all N concurrent flows on 64 nodes — seeded random inter-node pairs
// plus one intra-node flow in eight, so tx, rx and ipc links all
// contend. The flows are submitted through Send and the kernel never
// runs, so every iteration recomputes the same flow set. A real step
// re-rates only the components an arrival or departure touched
// (BenchmarkFluidChurn); this is its worst case.
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
			fl := n.fluid
			fl.rerate(0)
			if got := len(fl.heap); got != flows {
				b.Fatalf("%d rated fluid flows, want %d", got, flows)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range fl.links {
					if fl.links[l].head != nil {
						fl.markDirty(int32(l))
					}
				}
				fl.rerate(0)
			}
		})
	}
}

// churnPair keeps one flow alive on its node pair: each time the
// pair's flow finishes injecting, the next one is sent.
type churnPair struct {
	n        *Network
	from, to int
	left     *int
	resend   sim.Event[churnPair]
}

func (p *churnPair) send() {
	if *p.left == 0 {
		p.n.k.Stop()
		return
	}
	*p.left--
	p.n.Send(p.from, p.to, 1<<20).Injected.Then(&p.resend)
}

// BenchmarkFluidChurn measures one flow departure plus one arrival
// among N concurrent flows that share no link (flow i runs node 2i to
// node 2i+1), the traffic shape of the bundled executor's merged
// per-(node, aggregator) batches. Every departure sends the next flow
// on its pair, so N flows stay active; starts are staggered so
// departures come one at a time. The solver step re-rates only the
// changed component, so the cost per churn should not grow with N.
func BenchmarkFluidChurn(b *testing.B) {
	for _, flows := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("flows%d", flows), func(b *testing.B) {
			k := sim.NewKernel(1)
			n := New(k, Config{
				Nodes: 2 * flows, InterBandwidth: 3e9, InterLatency: sim.Microsecond,
				IntraBandwidth: 6e9, IntraLatency: 300 * sim.Nanosecond,
				MemBandwidth: 8e9, NetModel: ModelFlow,
			})
			left := b.N
			pairs := make([]churnPair, flows)
			for i := range pairs {
				p := &pairs[i]
				*p = churnPair{n: n, from: 2 * i, to: 2*i + 1, left: &left}
				p.resend = sim.NewEvent(p, (*churnPair).send)
				n.Send(p.from, p.to, 1<<20+int64(i)*(1<<20)/int64(flows)).Injected.Then(&p.resend)
			}
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
		})
	}
}
