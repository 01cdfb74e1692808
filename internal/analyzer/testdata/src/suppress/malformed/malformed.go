// Fixtures for malformed and mismatched //collvet:ignore comments.
// Expectations are asserted programmatically (suppress_test.go), not
// with want comments: a malformed suppression's diagnostic is reported
// on the comment's own line, which the comment already occupies.
package malformed

import (
	"mpi"
)

// No reason: the waiver is itself a finding, and suppresses nothing —
// the use-after-release fires too.
func bareSuppression(r *mpi.Rank) int64 {
	q := r.Irecv(0, 1, 64, nil)
	r.Wait(q)
	return q.Received() //collvet:ignore poolpath
}

// Unknown analyzer name: reported, and the leak below still fires.
func unknownAnalyzer(r *mpi.Rank) {
	//collvet:ignore nosuchanalyzer -- the name is wrong on purpose
	q := r.Isend(1, 0, mpi.Symbolic(64))
	_ = q.Done()
}

// Missing analyzer name: reported, and the leak below still fires.
func missingName(r *mpi.Rank) {
	//collvet:ignore -- which analyzer?
	q := r.Isend(1, 0, mpi.Symbolic(64))
	_ = q.Done()
}

// Well-formed but naming a different analyzer: not a finding itself,
// and the poolpath leak below is NOT covered.
func mismatched(r *mpi.Rank) {
	//collvet:ignore payloadalias -- fixture: names the wrong analyzer on purpose
	q := r.Isend(1, 0, mpi.Symbolic(64))
	_ = q.Done()
}
