// Request-leak fixtures for poolpath: a request from Isend/Irecv must
// reach Wait. A dropped result can never be waited; a comparison
// observes a request without handing it off; a local slice collecting
// requests stays live until Wait(reqs...) or until the slice escapes.
package requestleak

import "mpi"

func droppedOutright(r *mpi.Rank) {
	r.Isend(1, 0, mpi.Symbolic(8)) // want `result of Isend is dropped: the pooled handle can never reach Wait`
	buf := make([]byte, 8)
	_ = r.Irecv(1, 0, 8, buf) // want `result of Irecv is dropped: the pooled handle can never reach Wait`
}

func leakedVar(r *mpi.Rank) bool {
	req := r.Isend(1, 0, mpi.Symbolic(8)) // want `pooled handle "req" acquired here may reach return without Wait`
	return req != nil                     // comparison observes, does not consume
}

func leakedSlice(r *mpi.Rank) {
	var reqs []*mpi.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, r.Isend(i, 0, mpi.Symbolic(8))) // want `pooled handles appended to "reqs" acquired here may reach return without Wait`
	}
}

// --- flagged: observed but never waited, so never back on the free list ---

func polled(r *mpi.Rank) {
	req := r.Isend(1, 0, mpi.Symbolic(8)) // want `pooled handle "req" acquired here may reach return without Wait`
	for !req.Done() {                     // polling observes; only Wait releases
	}
}

// --- near misses: every shape below releases or hands off the request ---

func waited(r *mpi.Rank) {
	req := r.Isend(1, 0, mpi.Symbolic(8))
	r.Wait(req)
}

func waitedSlice(r *mpi.Rank) {
	var reqs []*mpi.Request
	buf := make([]byte, 8)
	for i := 0; i < 4; i++ {
		reqs = append(reqs, r.Irecv(i, 0, 8, buf))
	}
	r.Wait(reqs...)
}

func returned(r *mpi.Rank) *mpi.Request {
	return r.Isend(1, 0, mpi.Symbolic(8)) // escapes to the caller
}

func handedOff(r *mpi.Rank, out *[]*mpi.Request) {
	*out = append(*out, r.Isend(1, 0, mpi.Symbolic(8))) // escapes through the pointer
}
