package simnet

import (
	"testing"

	"collio/internal/sim"
)

// flowNet builds a sequential ModelFlow network: bw bytes/s per NIC,
// 1 µs wire latency, fluid threshold 64 KiB (the default).
func flowNet(t *testing.T, nodes int, bw float64) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	n := New(k, Config{
		Nodes:          nodes,
		InterBandwidth: bw,
		InterLatency:   sim.Microsecond,
		IntraBandwidth: 5e9,
		IntraLatency:   100 * sim.Nanosecond,
		MemBandwidth:   10e9,
		NetModel:       ModelFlow,
	})
	return k, n
}

// approx asserts |got-want| <= tol.
func approx(t *testing.T, what string, got, want, tol sim.Time) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestFlowUncontendedCompletion(t *testing.T) {
	// One flow on an idle network: transmission at full NIC bandwidth,
	// delivery one wire latency later — the same shape as the chunked
	// model's uncontended cut-through.
	k, n := flowNet(t, 2, 1e9) // 1 byte/ns
	const size = 1 << 20
	tr := send(n, 0, 1, size)
	k.Run()
	if !tr.Injected.Done() || !tr.Delivered.Done() {
		t.Fatal("flow transfer did not complete")
	}
	approx(t, "Injected", tr.Injected.DoneAt(), sim.Time(size), 2)
	approx(t, "Delivered", tr.Delivered.DoneAt(), sim.Time(size)+sim.Microsecond, 2)
}

func TestFlowFairShareOnSharedTx(t *testing.T) {
	// Two equal flows out of the same NIC to distinct destinations
	// split the injection bandwidth and finish together at 2·S/bw.
	k, n := flowNet(t, 3, 1e9)
	const size = 1 << 20
	a := send(n, 0, 1, size)
	b := send(n, 0, 2, size)
	k.Run()
	approx(t, "a.Injected", a.Injected.DoneAt(), 2*sim.Time(size), 4)
	approx(t, "b.Injected", b.Injected.DoneAt(), 2*sim.Time(size), 4)
}

func TestFlowMaxMinAsymmetric(t *testing.T) {
	// A: 0→1, B: 0→2, C: 3→2, D: 3→2. The rx link of node 2 carries
	// three flows (bottleneck share bw/3); A then picks up the slack on
	// node 0's tx link: 2bw/3. Progressive filling, not equal split.
	k, n := flowNet(t, 4, 1e9)
	const size = 1 << 20
	a := send(n, 0, 1, size)
	b := send(n, 0, 2, size)
	c := send(n, 3, 2, size)
	d := send(n, 3, 2, size)
	k.Run()
	// A at rate 2bw/3 finishes at 1.5·S; B, C, D at bw/3 finish at 3·S
	// (A's departure does not lift the rx-2 bottleneck).
	approx(t, "a.Injected", a.Injected.DoneAt(), sim.Time(3*size/2), 8)
	for name, tr := range map[string]sent{"b": b, "c": c, "d": d} {
		approx(t, name+".Injected", tr.Injected.DoneAt(), sim.Time(3*size), 8)
	}
}

func TestFlowArrivalRecomputesRates(t *testing.T) {
	// A runs alone for 1 ms, then B arrives on the same tx link: A's
	// remaining bytes proceed at half rate. Piecewise-linear progress.
	k, n := flowNet(t, 3, 1e9)
	const sa = 2 << 20 // ~2.1 ms alone
	const sb = 1 << 20
	a := send(n, 0, 1, sa)
	var b sent
	k.After(sim.Millisecond, func() { b = send(n, 0, 2, sb) })
	k.Run()
	// B: sb bytes at bw/2 — it never runs uncontended (A finishes later).
	wantB := sim.Millisecond + 2*sim.Time(sb)
	approx(t, "b.Injected", b.Injected.DoneAt(), wantB, 8)
	// A: 1e6 bytes alone in the first ms, then sb more at bw/2 while B
	// drains, then the remainder at full rate once B departs.
	wantA := wantB + sim.Time(sa-1_000_000-sb)
	approx(t, "a.Injected", a.Injected.DoneAt(), wantA, 8)
}

func TestFlowMilestones(t *testing.T) {
	// Milestones complete one latency after their byte offset crosses,
	// in order, and the final milestone coincides with delivery.
	k, n := flowNet(t, 2, 1e9)
	const size = 1 << 20
	tr, ms := n.SendFlowMilestones(0, 1, size, []int64{size / 4, size / 2, size})
	kept := keep(n, tr)
	k.Run()
	lat := sim.Microsecond
	approx(t, "ms[0]", ms[0].DoneAt(), sim.Time(size/4)+lat, 4)
	approx(t, "ms[1]", ms[1].DoneAt(), sim.Time(size/2)+lat, 4)
	approx(t, "ms[2]", ms[2].DoneAt(), sim.Time(size)+lat, 4)
	approx(t, "Delivered", kept.Delivered.DoneAt(), sim.Time(size)+lat, 4)
	if ms[1].DoneAt() < ms[0].DoneAt() || ms[2].DoneAt() < ms[1].DoneAt() {
		t.Error("milestones completed out of order")
	}
}

func TestFlowSmallMessagesKeepExactPath(t *testing.T) {
	// Below FlowMinBytes the exact server path serves the message:
	// completion at the server's deterministic service time, identical
	// to a ModelChunked network.
	k, n := flowNet(t, 2, 1e9)
	const size = 1 << 10 // 1 KiB < 64 KiB threshold
	tr := send(n, 0, 1, size)

	kc := sim.NewKernel(1)
	nc := New(kc, Config{Nodes: 2, InterBandwidth: 1e9, InterLatency: sim.Microsecond,
		IntraBandwidth: 5e9, IntraLatency: 100 * sim.Nanosecond, MemBandwidth: 10e9})
	trc := send(nc, 0, 1, size)

	k.Run()
	kc.Run()
	if got, want := tr.Delivered.DoneAt(), trc.Delivered.DoneAt(); got != want {
		t.Errorf("sub-threshold flow-mode delivery %v differs from chunked %v", got, want)
	}
}

func TestFlowIntraNodeKeepsExactPath(t *testing.T) {
	k, n := flowNet(t, 2, 1e9)
	const size = 8 << 20 // far above the threshold, but intra-node
	tr := send(n, 1, 1, size)
	k.Run()
	// ipc server: IntraLatency + size/IntraBandwidth.
	svc := float64(size) / 5e9 * 1e9
	want := 100*sim.Nanosecond + sim.Time(svc)
	approx(t, "intra Delivered", tr.Delivered.DoneAt(), want, 4)
}

func TestFlowDeterminism(t *testing.T) {
	run := func() []sim.Time {
		k, n := flowNet(t, 4, 3.4e9)
		var trs []sent
		for i := 0; i < 12; i++ {
			from, to := i%3, 1+i%3
			if from == to {
				to = (to + 1) % 4
			}
			trs = append(trs, send(n, from, to, int64(1<<20+i*4096)))
		}
		k.Run()
		var out []sim.Time
		for _, tr := range trs {
			out = append(out, tr.Injected.DoneAt(), tr.Delivered.DoneAt())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow mode nondeterministic at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlowPartitionedRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPartitioned accepted ModelFlow")
		}
	}()
	part := sim.NewPartition(1, 2, sim.Microsecond)
	NewPartitioned(part, Config{Nodes: 2, InterBandwidth: 1e9,
		InterLatency: sim.Microsecond, IntraBandwidth: 5e9,
		MemBandwidth: 10e9, NetModel: ModelFlow})
}
