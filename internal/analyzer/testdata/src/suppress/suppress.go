// Fixtures for honored //collvet:ignore suppressions, covering a
// legacy straight-line analyzer (payloadalias) and a CFG-based one
// (poolpath) in the same package. Malformed suppressions live in the
// sibling malformed package (they are asserted programmatically: a
// malformed comment's diagnostic lands on the comment's own line,
// where no want comment can sit).
package suppress

import (
	"mpi"
)

// Trailing-comment form: the waiver sits on the diagnostic's own line.
// It names two analyzers, of which only poolpath reports here.
func suppressedUseAfterRelease(r *mpi.Rank) int64 {
	q := r.Irecv(0, 1, 64, nil)
	r.Wait(q)
	return q.Received() //collvet:ignore payloadalias,poolpath -- fixture: accounting reads the count back before the pool can recycle
}

// Full-line form: the waiver sits on the line above the diagnostic
// (poolpath reports the leak at the acquire site).
func suppressedLeakLineAbove(r *mpi.Rank) {
	//collvet:ignore poolpath -- fixture: the reaper goroutine owns and waits this request
	q := r.Isend(1, 0, mpi.Symbolic(64))
	_ = q.Done()
}

// An unrelated finding in the same package still fires: suppression is
// per-line, not per-file.
func unsuppressedLeak(r *mpi.Rank) {
	q := r.Isend(1, 0, mpi.Symbolic(64)) // want `pooled handle "q" acquired here may reach return without Wait`
	_ = q.Done()
}
