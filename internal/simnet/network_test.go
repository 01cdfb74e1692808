package simnet

import (
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
)

func testConfig() Config {
	return Config{
		Nodes:          4,
		InterBandwidth: float64(sim.Second), // 1 byte/ns
		InterLatency:   100,
		IntraBandwidth: 4 * float64(sim.Second),
		IntraLatency:   10,
		MemBandwidth:   8 * float64(sim.Second),
	}
}

// sent is what a test keeps of one transfer: futures it owns, completed
// by forwards (Then) from the transfer's at the same instants. The
// transfer itself is lent only for the sending event.
type sent struct{ Injected, Delivered *sim.Future }

// newFuture returns an incomplete future bound to k, as an owner
// embedding one would arm it.
func newFuture(k *sim.Kernel) *sim.Future {
	f := new(sim.Future)
	k.InitFuture(f)
	return f
}

// keep forwards tr's completions into test-owned futures; an intra-node
// transfer's single completion stays single.
func keep(n *Network, tr *Transfer) sent {
	s := sent{Injected: newFuture(n.KernelFor(tr.From))}
	tr.Injected.Then(s.Injected)
	s.Delivered = s.Injected
	if tr.Delivered != tr.Injected {
		s.Delivered = newFuture(n.KernelFor(tr.To))
		tr.Delivered.Then(s.Delivered)
	}
	return s
}

// send is n.Send with its completions kept.
func send(n *Network, from, to int, size int64) sent { return keep(n, n.Send(from, to, size)) }

func TestInterNodeTransferTime(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	tr := send(n, 0, 1, 1000)
	k.Run()
	// Uncontended: latency(100) + size/bw(1000) = 1100.
	if tr.Delivered.DoneAt() != 1100 {
		t.Fatalf("delivered at %v, want 1100", tr.Delivered.DoneAt())
	}
	// Injection completes when tx is done: 1000.
	if tr.Injected.DoneAt() != 1000 {
		t.Fatalf("injected at %v, want 1000", tr.Injected.DoneAt())
	}
}

func TestIntraNodeTransfer(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	tr := send(n, 2, 2, 4000)
	k.Run()
	// 10 latency + 4000/4 = 1010.
	if tr.Delivered.DoneAt() != 1010 {
		t.Fatalf("delivered at %v, want 1010", tr.Delivered.DoneAt())
	}
	if tr.Injected != tr.Delivered {
		t.Fatal("intra-node transfer should have one completion")
	}
}

// TestTransfersReturnToPool checks the network's ownership of its
// transfers: each returns to a pool at its delivery, so no transfer is
// live once the kernel drains, and a burst of sends after the first
// allocates no transfers.
func TestTransfersReturnToPool(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	burst := func() {
		for i := 0; i < 8; i++ {
			n.Send(i%4, (i+1)%4, 512)
			n.Send(i%4, i%4, 512)
		}
		if n.LiveTransfers() != 16 {
			t.Fatalf("%d live transfers in flight, want 16", n.LiveTransfers())
		}
		k.Run()
	}
	burst()
	if live := n.LiveTransfers(); live != 0 {
		t.Fatalf("%d transfers live after the run, want 0", live)
	}
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("a burst from the warm pool allocates %.1f times, want 0", allocs)
	}
}

func TestTxContention(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	// Two messages from node 0 serialise on its tx port.
	t1 := send(n, 0, 1, 1000)
	t2 := send(n, 0, 2, 1000)
	k.Run()
	if t1.Delivered.DoneAt() != 1100 {
		t.Fatalf("first delivered at %v, want 1100", t1.Delivered.DoneAt())
	}
	// Second injects 1000..2000, rx busy from 100+... delivered = max(tx,rx legs).
	if t2.Delivered.DoneAt() != 2100 {
		t.Fatalf("second delivered at %v, want 2100", t2.Delivered.DoneAt())
	}
}

func TestRxContentionAtAggregator(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	// Nodes 1,2,3 all send to node 0: rx port of 0 serialises.
	trs := []sent{
		send(n, 1, 0, 1000),
		send(n, 2, 0, 1000),
		send(n, 3, 0, 1000),
	}
	k.Run()
	// rx occupied [100,1100],[1100,2100],[2100,3100].
	want := []sim.Time{1100, 2100, 3100}
	for i, tr := range trs {
		if tr.Delivered.DoneAt() != want[i] {
			t.Fatalf("transfer %d delivered at %v, want %v", i, tr.Delivered.DoneAt(), want[i])
		}
	}
}

func TestMemcpyCost(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	f := newFuture(k)
	n.MemcpyTo(f, 1, 8000)
	k.Run()
	if f.DoneAt() != 1000 { // 8000 / 8 per ns
		t.Fatalf("memcpy done at %v, want 1000", f.DoneAt())
	}
}

func TestLinkNoiseApplied(t *testing.T) {
	cfg := testConfig()
	cfg.LinkNoise = func(rng func() float64) float64 { return 3.0 }
	k := sim.NewKernel(1)
	n := New(k, cfg)
	tr := send(n, 0, 1, 1000)
	k.Run()
	// Both legs tripled: tx takes 3000, rx leg finishes at 100+3000.
	if tr.Delivered.DoneAt() != 3100 {
		t.Fatalf("noisy transfer delivered at %v, want 3100", tr.Delivered.DoneAt())
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	p := probe.New()
	n.SetSinks(0, p, nil)
	n.Send(0, 1, 500)
	n.Send(2, 2, 300)
	k.Run()
	ctr := p.Counters()
	inter, intra, msgs := ctr.Get(probe.CtrNetInterBytes), ctr.Get(probe.CtrNetIntraBytes), ctr.Get(probe.CtrNetMsgs)
	if inter != 500 || intra != 300 || msgs != 2 {
		t.Fatalf("stats = %d/%d/%d, want 500/300/2", inter, intra, msgs)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative size")
		}
	}()
	k := sim.NewKernel(1)
	n := New(k, testConfig())
	n.Send(0, 1, -1)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero nodes")
		}
	}()
	New(sim.NewKernel(1), Config{})
}

func TestDeterministicNoise(t *testing.T) {
	run := func() sim.Time {
		cfg := testConfig()
		cfg.LinkNoise = func(rng func() float64) float64 { return 1 + rng() }
		k := sim.NewKernel(99)
		n := New(k, cfg)
		tr := send(n, 0, 1, 10000)
		k.Run()
		return tr.Delivered.DoneAt()
	}
	if run() != run() {
		t.Fatal("noisy transfers not reproducible for fixed seed")
	}
}
