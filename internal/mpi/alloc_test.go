package mpi

import (
	"testing"

	"collio/internal/probe"
)

// eagerExchange runs rounds of a symbolic eager all-to-all among four
// ranks on two nodes, its network probed into p when p is non-nil. In
// every round each rank pre-posts its receives, meets the others at a
// barrier, sends one 4 KiB message to each peer and waits for all of
// them: intra-node and inter-node eager traffic, pre-posted and
// unexpected arrivals (the barrier's).
func eagerExchange(t testing.TB, rounds int, p *probe.Probe) {
	k, w := testWorld(t, 4, 2, 1, nil)
	w.Network().SetSinks(0, p, nil)
	w.Launch(func(r *Rank) {
		reqs := make([]*Request, 0, 6)
		for j := 0; j < rounds; j++ {
			reqs = reqs[:0]
			for p := 0; p < 4; p++ {
				if p != r.ID() {
					reqs = append(reqs, r.Irecv(p, j, 4096, nil))
				}
			}
			r.Barrier()
			for p := 0; p < 4; p++ {
				if p != r.ID() {
					reqs = append(reqs, r.Isend(p, j, Symbolic(4096)))
				}
			}
			r.Wait(reqs...)
		}
	})
	k.Run()
}

// eagerMessages returns the number of simulated messages one exchange
// of rounds rounds sends, counted by a probed run.
func eagerMessages(t testing.TB, rounds int) int64 {
	p := probe.New()
	eagerExchange(t, rounds, p)
	return p.Counters().Get(probe.CtrNetMsgs)
}

// maxEagerAllocsPerMsg gates the host allocations of one simulated
// eager message in steady state. The exchange measures 6.00; the
// margin of 0.5 absorbs runtime-version drift but not a lost pooling or
// forwarding path, each of which costs at least one allocation per
// message.
const maxEagerAllocsPerMsg = 6.5

// TestEagerAllocsPerMessage is the allocation gate for the message hot
// path: request and transfer pooling, allocation-free completion
// forwarding (Future.Then, Kernel.CompleteAfter) and the pooled delayed
// server submit. Setup cost cancels out: the figure is the difference
// between a long and a short exchange, divided by the extra messages.
// The measured runs are unprobed; the message counts come from one
// probed run of each length.
func TestEagerAllocsPerMessage(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const short, long = 16, 80
	mShort, mLong := eagerMessages(t, short), eagerMessages(t, long)
	aShort := testing.AllocsPerRun(5, func() { eagerExchange(t, short, nil) })
	aLong := testing.AllocsPerRun(5, func() { eagerExchange(t, long, nil) })
	perMsg := (aLong - aShort) / float64(mLong-mShort)
	t.Logf("%.2f allocs per simulated eager message (%d extra messages)", perMsg, mLong-mShort)
	if perMsg > maxEagerAllocsPerMsg {
		t.Fatalf("%.2f allocs per eager message, gate is %.2f", perMsg, maxEagerAllocsPerMsg)
	}
}
