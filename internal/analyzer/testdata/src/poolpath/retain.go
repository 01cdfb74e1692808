// Straight-line use-after-release fixtures: an *mpi.Request recycled by
// Wait must not be used past the release point, and a *simnet.Transfer
// lent for its sending event must not be kept past it. The near misses
// stay silent on use after release; one of them still leaks its last
// handle, which poolpath reports at the acquire site.
package poolpath

import (
	"mpi"
	"sim"
	"simnet"
)

func badReadAfterWait(r *mpi.Rank) int64 {
	q := r.Irecv(0, 3, 1024, nil)
	r.Wait(q)
	return q.Received() // want `pooled handle "q" used after Wait`
}

func badCallbackAfterWait(r *mpi.Rank, f *sim.Future) {
	q := r.Irecv(0, 3, 4096, nil)
	r.Wait(q)
	f.Then(sim.Func(func() {
		_ = q.Done() // want `pooled handle "q" used after Wait`
	}))
}

func badDoubleWait(r *mpi.Rank) {
	q := r.Isend(1, 0, mpi.Symbolic(64))
	r.Wait(q)
	r.Wait(q) // want `pooled handle "q" used after Wait`
}

func badInjectedSentOnChannel(net *simnet.Network, out chan<- *sim.Future) {
	tr := net.Send(0, 1, 64)
	inj := tr.Injected
	out <- inj // want `future "inj" of pooled transfer "tr" stored past its sending event`
}

// --- near misses: extraction before release and rebinding stay silent ---

func goodCaptureBeforeWait(r *mpi.Rank, f *sim.Future) int64 {
	q := r.Irecv(0, 3, 4096, nil)
	done := q.Done()
	r.Wait(q)
	f.Then(sim.Func(func() { _ = done }))
	return 0
}

func goodRebindAfterWait(r *mpi.Rank) int64 {
	q := r.Irecv(0, 3, 64, nil)
	r.Wait(q)
	q = r.Irecv(1, 3, 128, nil) // want `pooled handle "q" acquired here may reach return without Wait: it leaks from the free list`
	return q.Received()         // fresh handle: not a use after release
}

func goodWaitSpread(r *mpi.Rank) {
	reqs := []*mpi.Request{r.Isend(1, 0, mpi.Symbolic(8))}
	r.Wait(reqs...)
	reqs = reqs[:0] // slice reuse after a spread Wait is the normal reap idiom
	_ = reqs
}

func goodTransferRebound(net *simnet.Network, k *sim.Kernel, f *sim.Future) {
	tr := net.Send(0, 1, 64)
	tr.Delivered.Then(f)
	tr = nil // rebound away: nothing of the transfer reaches the callback
	k.After(1, func() { _ = tr })
}
