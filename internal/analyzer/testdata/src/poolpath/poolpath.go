// Fixtures for the poolpath analyzer: flow-sensitive lifetime checking
// of pooled handles (*simnet.Transfer, *mpi.Request). Unlike the
// straight-line payloadalias rule, these shapes need real path
// reasoning: a Release missing on only the error path, a double
// release reached through a join, a use after a conditional release.
package poolpath

import (
	"mpi"
	"sim"
	"simnet"
)

// --- flagged: release missing on some path ---

func badErrorPathLeaksTransfer(net *simnet.Network, fail bool) {
	tr := net.Send(0, 1, 4096) // want `pooled handle "tr" acquired here may reach return without Network.Release \(released on some paths but not all\)`
	if fail {
		return // leaks tr
	}
	net.Release(tr)
}

func badRequestNeverWaited(r *mpi.Rank, n int) int64 {
	q := r.Irecv(0, 3, 1024, nil) // want `pooled handle "q" acquired here may reach return without Wait`
	if n > 0 {
		return int64(n)
	}
	return q.Received()
}

func badReassignWhileLive(net *simnet.Network) {
	tr := net.Send(0, 1, 64)
	tr = net.Send(1, 0, 128) // want `pooled handle "tr" reassigned before Network.Release: the previous handle leaks`
	net.Release(tr)
}

// --- flagged: double release through a join ---

func badDoubleReleaseOnOnePath(net *simnet.Network, early bool) {
	tr := net.Send(0, 1, 64)
	if early {
		net.Release(tr)
	}
	net.Release(tr) // want `pooled handle "tr" used after Network.Release`
}

// --- flagged: use after a conditional release ---

func badUseAfterConditionalWait(r *mpi.Rank, drain bool) int64 {
	q := r.Irecv(0, 7, 512, nil) // want `pooled handle "q" acquired here may reach return without Wait \(released on some paths but not all\)`
	if drain {
		r.Wait(q)
	}
	return q.Received() // want `pooled handle "q" used after Wait`
}

// --- flagged: a request's future used after the request's Wait ---

func badFutureAfterWait(r *mpi.Rank) {
	q := r.Isend(1, 0, mpi.Symbolic(8))
	f := q.Future()
	r.Wait(q)
	r.WaitFutures(f) // want `future "f" of pooled request "q" used after Wait`
}

func badFutureAfterConditionalWait(r *mpi.Rank, early bool) bool {
	q := r.Irecv(0, 1, 64, nil) // want `pooled handle "q" acquired here may reach return without Wait \(released on some paths but not all\)`
	f := q.Future()
	if early {
		r.Wait(q)
	}
	return f.Done() // want `future "f" of pooled request "q" used after Wait`
}

func badFuturePassedThenWaited(r *mpi.Rank, other *sim.Future) {
	q := r.Isend(2, 0, mpi.Symbolic(8))
	f := q.Future()
	r.WaitAnyFuture(f, other) // still the request's future, still tracked
	r.Wait(q)
	r.WaitFutures(f) // want `future "f" of pooled request "q" used after Wait`
}

// --- clean: released on every path ---

func goodReleasedBothBranches(net *simnet.Network, fast bool) {
	tr := net.Send(0, 1, 256)
	if fast {
		net.Release(tr)
		return
	}
	net.Release(tr)
}

func goodDeferRelease(net *simnet.Network, fail bool) int64 {
	tr := net.Send(0, 1, 4096)
	defer net.Release(tr)
	if fail {
		return 0
	}
	return tr.Size
}

// --- clean: escapes transfer ownership of the release ---

func goodReturnsHandle(r *mpi.Rank) *mpi.Request {
	q := r.Isend(1, 0, mpi.Symbolic(8))
	return q // caller owns the Wait
}

func goodAppendsToReapList(r *mpi.Rank, reqs []*mpi.Request) []*mpi.Request {
	q := r.Isend(2, 0, mpi.Symbolic(16))
	reqs = append(reqs, q) // reaped by the caller's Wait(reqs...)
	return reqs
}

func goodCallbackOwnsRelease(net *simnet.Network) {
	tr := net.SendFlow(nil, 0, 1, 1024)
	tr.Delivered.OnDone(func() {
		net.Release(tr) // the callback owns the handle now
	})
}

func goodFutureBeforeWait(r *mpi.Rank, other *sim.Future) int {
	q := r.Isend(1, 0, mpi.Symbolic(8))
	f := q.Future()
	idx := r.WaitAnyFuture(f, other)
	r.Wait(q)
	return idx
}

func goodFutureRebound(r *mpi.Rank, k *sim.Kernel) {
	q := r.Isend(1, 0, mpi.Symbolic(8))
	f := q.Future()
	r.Wait(q)
	f = k.NewFuture() // a fresh future, not the recycled one
	r.WaitFutures(f)
}

// --- clean: loop-carried acquire/release ---

func goodLoopAcquireRelease(net *simnet.Network, n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		tr := net.Send(i, i+1, 64)
		total += tr.Size
		net.Release(tr)
	}
	return total
}
