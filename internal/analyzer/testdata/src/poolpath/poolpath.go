// Fixtures for the poolpath analyzer: flow-sensitive lifetime checking
// of pooled handles. An *mpi.Request is released by Wait, so these
// shapes need real path reasoning: a Wait missing on only the error
// path, a double release reached through a join, a use after a
// conditional release. A *simnet.Transfer is lent for its sending event
// only: the network recycles it, futures included, at its last event.
package poolpath

import (
	"mpi"
	"sim"
	"simnet"
)

// --- flagged: release missing on some path ---

func badErrorPathLeaksRequest(r *mpi.Rank, fail bool) {
	q := r.Isend(1, 0, mpi.Symbolic(4096)) // want `pooled handle "q" acquired here may reach return without Wait \(released on some paths but not all\)`
	if fail {
		return // leaks q
	}
	r.Wait(q)
}

func badRequestNeverWaited(r *mpi.Rank, n int) int64 {
	q := r.Irecv(0, 3, 1024, nil) // want `pooled handle "q" acquired here may reach return without Wait`
	if n > 0 {
		return int64(n)
	}
	return q.Received()
}

func badReassignWhileLive(r *mpi.Rank) {
	q := r.Isend(1, 0, mpi.Symbolic(64))
	q = r.Isend(2, 0, mpi.Symbolic(128)) // want `pooled handle "q" reassigned before Wait: the previous handle leaks`
	r.Wait(q)
}

// --- flagged: double release through a join ---

func badDoubleWaitOnOnePath(r *mpi.Rank, early bool) {
	q := r.Isend(1, 0, mpi.Symbolic(64))
	if early {
		r.Wait(q)
	}
	r.Wait(q) // want `pooled handle "q" used after Wait`
}

// --- flagged: use after a conditional release ---

func badUseAfterConditionalWait(r *mpi.Rank, drain bool) int64 {
	q := r.Irecv(0, 7, 512, nil) // want `pooled handle "q" acquired here may reach return without Wait \(released on some paths but not all\)`
	if drain {
		r.Wait(q)
	}
	return q.Received() // want `pooled handle "q" used after Wait`
}

// --- flagged: a lent transfer kept past its sending event ---

func badTransferInCallback(net *simnet.Network) {
	tr := net.SendFlow(nil, 0, 1, 1024)
	tr.Delivered.Then(sim.Func(func() {
		_ = tr.From // want `pooled transfer "tr" used in a callback: the network recycles it at its last event`
	}))
}

func badDeliveredFutureInCallback(net *simnet.Network, k *sim.Kernel) {
	tr := net.Send(0, 1, 64)
	done := tr.Delivered
	k.After(10, func() {
		_ = done.Done() // want `future "done" of pooled transfer "tr" used in a callback`
	})
}

type epoch struct {
	puts []*sim.Future
	last *simnet.Transfer
}

func badDeliveredFutureKept(net *simnet.Network, ep *epoch) {
	tr := net.Send(0, 1, 4096)
	done := tr.Delivered
	ep.puts = append(ep.puts, done) // want `future "done" of pooled transfer "tr" stored past its sending event`
}

func badTransferStored(net *simnet.Network, ep *epoch) {
	tr := net.Send(0, 1, 64)
	ep.last = tr // want `pooled transfer "tr" stored past its sending event`
}

func badTransferAliasInCallback(net *simnet.Network, k *sim.Kernel) {
	tr := net.Send(0, 1, 64)
	alias := tr
	k.After(5, func() {
		_ = alias.Size // want `pooled transfer "alias" used in a callback`
	})
}

// --- clean: released on every path ---

func goodWaitedBothBranches(r *mpi.Rank, fast bool) {
	q := r.Isend(1, 0, mpi.Symbolic(256))
	if fast {
		r.Wait(q)
		return
	}
	r.Wait(q)
}

func goodDeferWait(r *mpi.Rank, fail bool) int64 {
	q := r.Irecv(0, 1, 4096, nil)
	defer r.Wait(q)
	if fail {
		return 0
	}
	return q.Received()
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

func goodCallbackOwnsWait(r *mpi.Rank, f *sim.Future) {
	q := r.Isend(1, 0, mpi.Symbolic(8))
	f.Then(sim.Func(func() {
		r.Wait(q) // the callback owns the handle now
	}))
}

// --- clean: a lent transfer used inside its sending event ---

func goodTransferRegistersInEvent(net *simnet.Network, inj, del *sim.Future, cb func()) int64 {
	tr := net.Send(0, 1, 4096)
	tr.Injected.Then(inj)
	tr.Delivered.Then(del)
	tr.Delivered.Then(sim.Func(cb))
	return tr.Size // no release: the network recycles the transfer
}

func goodTransferFieldsCapturedByValue(net *simnet.Network, sink func(int, int64)) {
	tr := net.Send(0, 1, 64)
	to, size := tr.To, tr.Size
	tr.Delivered.Then(sim.Func(func() { sink(to, size) }))
}

func goodCallerOwnedDeliveredKept(net *simnet.Network, k *sim.Kernel, ep *epoch, inj *sim.Future) {
	done := new(sim.Future)
	k.InitFuture(done)
	tr := net.SendFlowTo(done, nil, 0, 1, 4096)
	tr.Injected.Then(inj)
	ep.puts = append(ep.puts, done) // the caller's own future, not the transfer's
}

func goodDeliveredFuturePassedInEvent(net *simnet.Network, f *sim.Future) {
	tr := net.Send(0, 1, 64)
	forward(tr.Delivered, f)
	done := tr.Delivered
	forward(done, f)
}

func forward(from, to *sim.Future) { from.Then(to) }

// --- clean: loop-carried acquire/release ---

func goodLoopSendWait(r *mpi.Rank, n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		q := r.Irecv(i, 0, 64, nil)
		total += q.Received()
		r.Wait(q)
	}
	return total
}

func goodLoopTransfers(net *simnet.Network, n int, f *sim.Future) int64 {
	var total int64
	for i := 0; i < n; i++ {
		tr := net.Send(i, i+1, 64)
		total += tr.Size
		tr.Delivered.Then(f)
	}
	return total
}
