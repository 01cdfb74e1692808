// Seeded-bug fixture: the dropped-request class. A request-leak check
// found two real bugs in internal/mpi/rma.go — WinPost and WinComplete
// sent PSCW control messages and dropped the *mpi.Request, leaking
// protocol state until the requests were tracked and drained at epoch
// close. poolpath owns that check now (the requestleak fixture package
// holds the dropped-result shapes); this file pins that its
// flow-sensitive must-release dataflow catches the same class, and
// that the fix shape stays clean.
package poolpath

import (
	"mpi"
)

// The bug: a control-message request acquired and read, never waited.
func badControlSendDropped(r *mpi.Rank, origin int) int64 {
	q := r.Isend(origin, 99, mpi.Symbolic(1)) // want `pooled handle "q" acquired here may reach return without Wait`
	return q.Received()
}

// The fix shape rma.go adopted: requests accumulate on a pending list
// (ownership escapes the acquire site) and are drained at epoch close.
func goodControlSendsDrainedAtEpochClose(r *mpi.Rank, group []int) {
	var pending []*mpi.Request
	for _, peer := range group {
		q := r.Isend(peer, 99, mpi.Symbolic(1))
		pending = append(pending, q)
	}
	for _, q := range pending {
		r.Wait(q)
	}
}
