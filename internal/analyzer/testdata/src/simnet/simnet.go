// Package simnet is a minimal stub of collio/internal/simnet for
// analyzer fixtures. As with the mpi and sim stubs, matching is by
// package NAME + method name, so only the call shapes matter.
package simnet

import "sim"

// Transfer mirrors the runtime's pooled transfer handle, lent to the
// caller for the sending event only.
type Transfer struct {
	Injected  *sim.Future
	Delivered *sim.Future
	Size      int64
	From, To  int
}

// Network mirrors the simulated fabric.
type Network struct{}

func (n *Network) Send(from, to int, size int64) *Transfer {
	return &Transfer{Injected: &sim.Future{}, Delivered: &sim.Future{}, Size: size, From: from, To: to}
}

func (n *Network) SendFlow(flow interface{}, from, to int, size int64) *Transfer {
	return n.Send(from, to, size)
}

func (n *Network) SendFlowTo(delivered *sim.Future, flow interface{}, from, to int, size int64) *Transfer {
	return &Transfer{Injected: &sim.Future{}, Delivered: delivered, Size: size, From: from, To: to}
}
