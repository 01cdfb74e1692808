package mpi

import "testing"

// eagerExchange runs rounds of a symbolic eager all-to-all among four
// ranks on two nodes and returns the number of simulated messages. In
// every round each rank pre-posts its receives, meets the others at a
// barrier, sends one 4 KiB message to each peer and waits for all of
// them: intra-node and inter-node eager traffic, pre-posted and
// unexpected arrivals (the barrier's).
func eagerExchange(t testing.TB, rounds int) int64 {
	k, w := testWorld(t, 4, 2, 1, nil)
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
	_, _, msgs := w.Network().Stats()
	return msgs
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
func TestEagerAllocsPerMessage(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const short, long = 16, 80
	var mShort, mLong int64
	aShort := testing.AllocsPerRun(5, func() { mShort = eagerExchange(t, short) })
	aLong := testing.AllocsPerRun(5, func() { mLong = eagerExchange(t, long) })
	perMsg := (aLong - aShort) / float64(mLong-mShort)
	t.Logf("%.2f allocs per simulated eager message (%d extra messages)", perMsg, mLong-mShort)
	if perMsg > maxEagerAllocsPerMsg {
		t.Fatalf("%.2f allocs per eager message, gate is %.2f", perMsg, maxEagerAllocsPerMsg)
	}
}
