package mpi

import (
	"testing"

	"collio/internal/probe"
)

// exchange runs rounds of a symbolic all-to-all of size-byte messages
// among four ranks on two nodes, its network probed into p when p is
// non-nil. In every round each rank pre-posts its receives, meets the
// others at a barrier, sends one message to each peer and waits for
// all of them: intra-node and inter-node traffic, pre-posted and
// unexpected arrivals (the barrier's).
func exchange(t testing.TB, rounds int, size int64, p *probe.Probe) {
	k, w := testWorld(t, 4, 2, 1, nil)
	w.Network().SetSinks(0, p, nil)
	w.SetProbe(0, p)
	w.Launch(func(r *Rank) {
		reqs := make([]*Request, 0, 6)
		for j := 0; j < rounds; j++ {
			reqs = reqs[:0]
			for p := 0; p < 4; p++ {
				if p != r.ID() {
					reqs = append(reqs, r.Irecv(p, j, size, nil))
				}
			}
			r.Barrier()
			for p := 0; p < 4; p++ {
				if p != r.ID() {
					reqs = append(reqs, r.Isend(p, j, Symbolic(size)))
				}
			}
			r.Wait(reqs...)
		}
	})
	k.Run()
}

// allocsPerMessage returns the host allocations of one message in
// steady state, for exchanges of size-byte messages, and the number of
// extra messages it was measured over. Setup cost cancels out: the
// figure is the difference between a long and a short exchange,
// divided by the extra messages, which counter ctr counts in one probed
// run of each length. The measured runs are unprobed.
func allocsPerMessage(t *testing.T, size int64, ctr string) (float64, int64) {
	const short, long = 16, 80
	msgs := func(rounds int) int64 {
		p := probe.New()
		exchange(t, rounds, size, p)
		return p.Counters().Get(ctr)
	}
	extra := msgs(long) - msgs(short)
	aShort := testing.AllocsPerRun(5, func() { exchange(t, short, size, nil) })
	aLong := testing.AllocsPerRun(5, func() { exchange(t, long, size, nil) })
	return (aLong - aShort) / float64(extra), extra
}

// maxEagerAllocsPerMsg gates the host allocations of one simulated
// eager message in steady state. The exchange measures 0.00; the
// margin of 0.5 absorbs runtime-version drift but not a lost pooling or
// forwarding path, each of which costs at least one allocation per
// message.
const maxEagerAllocsPerMsg = 0.5

// TestEagerAllocsPerMessage is the allocation gate for the message hot
// path: request, transfer and message pooling, allocation-free
// completion forwarding (Future.Then, Kernel.CompleteAfter) and the
// caller-owned server completions. Every simulated message counts (the
// barrier's too).
func TestEagerAllocsPerMessage(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	perMsg, extra := allocsPerMessage(t, 4096, probe.CtrNetMsgs)
	t.Logf("%.2f allocs per simulated eager message (%d extra messages)", perMsg, extra)
	if perMsg > maxEagerAllocsPerMsg {
		t.Fatalf("%.2f allocs per eager message, gate is %.2f", perMsg, maxEagerAllocsPerMsg)
	}
}

// maxRendezvousAllocsPerMsg gates the host allocations of one
// rendezvous message (1 MiB, one pipeline chunk) in steady state,
// counted per rendezvous send; the barrier's eager messages ride along
// and cost nothing. Every packet of the handshake and the chunk pump is
// a pooled msg; the rendezvous state (rdvState) is the one allocation
// left. The exchange measures 1.00; the margin is 0.5, as for eager
// messages.
const maxRendezvousAllocsPerMsg = 1.5

// TestRendezvousAllocsPerMessage is the sibling gate for the
// rendezvous path.
func TestRendezvousAllocsPerMessage(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	perMsg, extra := allocsPerMessage(t, 1<<20, probe.CtrMPIRdvMsgs)
	t.Logf("%.2f allocs per simulated rendezvous message (%d extra messages)", perMsg, extra)
	if perMsg > maxRendezvousAllocsPerMsg {
		t.Fatalf("%.2f allocs per rendezvous message, gate is %.2f", perMsg, maxRendezvousAllocsPerMsg)
	}
}

// putEpochs runs epochs in which ranks 1-3 each put 16 8-byte pieces
// into rank 0's data-mode window, inside a fence epoch or, when lock is
// set, a shared lock on rank 0. Rank 1 shares rank 0's node; ranks 2
// and 3 put across the network.
func putEpochs(t testing.TB, epochs int, lock bool) {
	const n = 16
	k, w := testWorld(t, 4, 2, 1, nil)
	w.Launch(func(r *Rank) {
		var size int64
		if r.ID() == 0 {
			size = 8 * n * 4
		}
		win := r.WinAllocate(size, true)
		b := make([]byte, 8)
		for e := 0; e < epochs; e++ {
			switch {
			case !lock:
				r.WinFence(win)
			case r.ID() != 0:
				r.WinLock(win, LockShared, 0)
			}
			if r.ID() != 0 {
				for i := 0; i < n; i++ {
					r.Put(win, 0, 8*int64(r.ID()*n+i), Bytes(b))
				}
			}
			switch {
			case !lock:
				r.WinFence(win)
			case r.ID() != 0:
				r.WinUnlock(win, 0)
			}
		}
	})
	k.Run()
}

// maxAllocsPerPut gates the host allocations of one Put in steady
// state. The put's completion is pooled and its data copy a bound
// sim.Event, so the epochs measure 0.00 under both synchronisations;
// the margin of 0.5 is the message gates'.
const maxAllocsPerPut = 0.5

// TestPutAllocsPerPut is the allocation gate for the one-sided hot
// path. Window setup cancels out: the figure is the difference between
// a long and a short run of equal epochs, over the extra puts, so it
// is the cost of one Put and of its share of the epoch's
// synchronisation.
func TestPutAllocsPerPut(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const short, long = 16, 80
	for _, lock := range []bool{false, true} {
		aShort := testing.AllocsPerRun(5, func() { putEpochs(t, short, lock) })
		aLong := testing.AllocsPerRun(5, func() { putEpochs(t, long, lock) })
		extra := 3 * 16 * (long - short)
		perPut := (aLong - aShort) / float64(extra)
		t.Logf("lock=%v: %.2f allocs per Put (%d extra puts)", lock, perPut, extra)
		if perPut > maxAllocsPerPut {
			t.Errorf("lock=%v: %.2f allocs per Put, gate is %.2f", lock, perPut, maxAllocsPerPut)
		}
	}
}

// pscwEpochs runs PSCW epochs in which rank 0 exposes its data-mode
// window to ranks 1-3 (WinPost, WinWait) and each of them puts one
// 8-byte piece inside its access epoch (WinStart, WinComplete).
func pscwEpochs(t testing.TB, epochs int) {
	origins, target := []int{1, 2, 3}, []int{0}
	k, w := testWorld(t, 4, 2, 1, nil)
	w.Launch(func(r *Rank) {
		var size int64
		if r.ID() == 0 {
			size = 8 * 4
		}
		win := r.WinAllocate(size, true)
		b := make([]byte, 8)
		for e := 0; e < epochs; e++ {
			if r.ID() == 0 {
				r.WinPost(win, origins)
				r.WinWait(win)
				continue
			}
			r.WinStart(win, target)
			r.Put(win, 0, 8*int64(r.ID()), Bytes(b))
			r.WinComplete(win)
		}
	})
	k.Run()
}

// maxAllocsPerEpoch gates the host allocations of one PSCW epoch in
// steady state: the groups and request scratch keep their backing
// arrays per origin, so the epochs measure 0.00; the margin of 0.5 is
// the message gates'.
const maxAllocsPerEpoch = 0.5

// TestPSCWAllocsPerEpoch is the allocation gate for generalised
// active-target synchronisation: the difference between a long and a
// short run of epochs, over the extra epochs, is the cost of one
// epoch's post, start, complete and wait calls at one target and three
// origins, their control messages and puts included.
func TestPSCWAllocsPerEpoch(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	const short, long = 16, 80
	aShort := testing.AllocsPerRun(5, func() { pscwEpochs(t, short) })
	aLong := testing.AllocsPerRun(5, func() { pscwEpochs(t, long) })
	perEpoch := (aLong - aShort) / float64(long-short)
	t.Logf("%.2f allocs per PSCW epoch (%d extra epochs)", perEpoch, long-short)
	if perEpoch > maxAllocsPerEpoch {
		t.Fatalf("%.2f allocs per PSCW epoch, gate is %.2f", perEpoch, maxAllocsPerEpoch)
	}
}
