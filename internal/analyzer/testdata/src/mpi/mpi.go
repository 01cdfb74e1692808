// Package mpi is a minimal stub of collio/internal/mpi for analyzer
// fixtures. Analyzer matching is by package NAME + method name, so the
// stub only needs to present the right call shapes; bodies are inert.
package mpi

import "sim"

// Payload mirrors the runtime's message payload.
type Payload struct {
	Size int64
	Data []byte
}

// Bytes wraps a concrete buffer as a payload.
func Bytes(b []byte) Payload { return Payload{Size: int64(len(b)), Data: b} }

// Symbolic is a size-only payload with no backing buffer.
func Symbolic(n int64) Payload { return Payload{Size: n} }

// Request mirrors a non-blocking operation handle.
type Request struct{ fut *sim.Future }

func (q *Request) Done() bool      { return q.fut.Done() }
func (q *Request) Received() int64 { return 0 }

// LockType selects shared or exclusive passive-target locking.
type LockType int

const (
	LockShared LockType = iota
	LockExclusive
)

// Window mirrors an RMA window.
type Window struct{}

// Rank mirrors the per-process MPI handle.
type Rank struct{}

func (r *Rank) Isend(dst, tag int, pl Payload) *Request { return &Request{fut: &sim.Future{}} }
func (r *Rank) Irecv(src, tag int, size int64, buf []byte) *Request {
	return &Request{fut: &sim.Future{}}
}
func (r *Rank) Wait(reqs ...*Request)                           {}
func (r *Rank) WaitFutures(fs ...*sim.Future)                   {}
func (r *Rank) Send(dst, tag int, pl Payload)                   {}
func (r *Rank) Recv(src, tag int, size int64, buf []byte) int64 { return 0 }
func (r *Rank) Barrier()                                        {}
func (r *Rank) AllreduceSync(bytes int64)                       {}
func (r *Rank) AllgathervSync(sizes []int64)                    {}
func (r *Rank) AlltoallSync(entryBytes int64)                   {}
func (r *Rank) AlltoallSyncAmong(ranks []int, entryBytes int64) {}
func (r *Rank) Compute(d int64)                                 {}

func (r *Rank) Put(win *Window, target int, offset int64, pl Payload) {}
func (r *Rank) WinFence(win *Window)                                  {}
func (r *Rank) WinLock(win *Window, typ LockType, target int)         {}
func (r *Rank) WinUnlock(win *Window, target int)                     {}
func (r *Rank) WinPost(win *Window, origins []int)                    {}
func (r *Rank) WinStart(win *Window, targets []int)                   {}
func (r *Rank) WinComplete(win *Window)                               {}
func (r *Rank) WinWait(win *Window)                                   {}
