// Straight-line use-after-release fixtures: a *simnet.Transfer handed
// back with Network.Release, or an *mpi.Request recycled by Wait, must
// not be used past the release point. The near misses stay silent on
// use after release; two of them still leak their last handle, which
// poolpath reports at the acquire site.
package poolpath

import (
	"mpi"
	"simnet"
)

func badReadAfterRelease(net *simnet.Network) int64 {
	tr := net.Send(0, 1, 4096)
	net.Release(tr)
	return tr.Size // want `pooled handle "tr" used after Network.Release`
}

func badCallbackAfterRelease(net *simnet.Network) {
	tr := net.SendFlow(nil, 0, 1, 4096)
	done := tr.Delivered
	net.Release(tr)
	done.OnDone(func() {
		_ = tr.From // want `pooled handle "tr" used after Network.Release`
	})
}

func badDoubleRelease(net *simnet.Network) {
	tr := net.Send(0, 1, 64)
	net.Release(tr)
	net.Release(tr) // want `pooled handle "tr" used after Network.Release`
}

func badRequestAfterWait(r *mpi.Rank) int64 {
	q := r.Irecv(0, 3, 1024, nil)
	r.Wait(q)
	return q.Received() // want `pooled handle "q" used after Wait`
}

// --- near misses: extraction before release and rebinding stay silent ---

func goodCaptureBeforeRelease(net *simnet.Network) int64 {
	tr := net.Send(0, 1, 4096)
	size := tr.Size
	done := tr.Delivered
	net.Release(tr)
	done.OnDone(func() {})
	return size
}

func goodRebindAfterRelease(net *simnet.Network) int64 {
	tr := net.Send(0, 1, 64)
	net.Release(tr)
	tr = net.Send(1, 0, 128) // want `pooled handle "tr" acquired here may reach return without Network.Release: it leaks from the free list`
	return tr.Size           // fresh handle: not a use after release
}

func goodOtherHandle(net *simnet.Network) int64 {
	a := net.Send(0, 1, 64)
	b := net.Send(1, 0, 128) // want `pooled handle "b" acquired here may reach return without Network.Release: it leaks from the free list`
	net.Release(a)
	return b.Size // distinct handle: not a use after release
}

func goodWaitSpread(r *mpi.Rank) {
	reqs := []*mpi.Request{r.Isend(1, 0, mpi.Symbolic(8))}
	r.Wait(reqs...)
	reqs = reqs[:0] // slice reuse after a spread Wait is the normal reap idiom
	_ = reqs
}
