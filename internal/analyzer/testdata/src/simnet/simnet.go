// Package simnet is a minimal stub of collio/internal/simnet for
// analyzer fixtures. As with the mpi and sim stubs, matching is by
// package NAME + type name, so only the shapes matter.
package simnet

// Transfer mirrors the runtime's pooled transfer handle.
type Transfer struct {
	Size     int64
	From, To int
}
