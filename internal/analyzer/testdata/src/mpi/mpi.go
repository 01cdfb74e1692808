// Package mpi is a minimal stub of collio/internal/mpi for analyzer
// fixtures. Analyzer matching is by package NAME + method name, so the
// stub only needs to present the right call shapes; bodies are inert.
package mpi

// Payload mirrors the runtime's message payload.
type Payload struct {
	Size int64
	Data []byte
}

// Symbolic is a size-only payload with no backing buffer.
func Symbolic(n int64) Payload { return Payload{Size: n} }

// Request mirrors a non-blocking operation handle.
type Request struct{}

// Rank mirrors the per-process MPI handle.
type Rank struct{}

func (r *Rank) Isend(dst, tag int, pl Payload) *Request { return &Request{} }
