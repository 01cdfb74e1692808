// Package mpiio is the MPI-IO layer of the simulated stack: it binds a
// rank set to a simulated parallel file, implements independent
// synchronous and asynchronous writes with the correct progress
// semantics, and dispatches collective writes into the fcoll two-phase
// engine — the role OMPIO plays inside Open MPI.
package mpiio

import (
	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/sim"
	"collio/internal/simfs"
)

// File is a shared file opened by every rank of a world
// (MPI_File_open on MPI_COMM_WORLD).
type File struct {
	w    *mpi.World
	f    *simfs.File
	seqs []int // per-rank collective sequence numbers, space message tags
	opts fcoll.Options
}

// Open binds a world to a simulated file with default collective
// options.
func Open(w *mpi.World, f *simfs.File) *File {
	return &File{w: w, f: f, seqs: make([]int, w.Size()), opts: fcoll.DefaultOptions()}
}

// SetCollectiveOptions configures the two-phase engine used by
// WriteAll (algorithm, primitive, buffer size, aggregators).
func (f *File) SetCollectiveOptions(opts fcoll.Options) { f.opts = opts }

// CollectiveOptions returns the current collective configuration.
func (f *File) CollectiveOptions() fcoll.Options { return f.opts }

// Raw returns the underlying simulated file (verification).
func (f *File) Raw() *simfs.File { return f.f }

// WriteSync performs an independent blocking write. The rank leaves the
// MPI library for the duration (POSIX pwrite under the hood): no
// communication progress happens on its behalf — the property that
// penalises Comm-Overlap in the paper.
func (f *File) WriteSync(r *mpi.Rank, off, size int64, data []byte) {
	r.ExitMPI()
	f.f.Write(r.Proc(), r.Node(), off, size, data)
	r.EnterMPI()
}

// WriteAsync starts an independent non-blocking write
// (MPI_File_iwrite / aio_write): the transfer is progressed by the OS,
// independent of the rank's activity, and the returned future completes
// when data is persisted.
func (f *File) WriteAsync(r *mpi.Rank, off, size int64, data []byte) *sim.Future {
	return f.f.AIOWrite(r.Node(), off, size, data)
}

// WriteAll performs a collective write of the job view through the
// two-phase engine. All ranks must call it with the same view. It
// returns this rank's accounting.
func (f *File) WriteAll(r *mpi.Rank, jv *fcoll.JobView) (fcoll.Result, error) {
	opts := f.opts
	f.seqs[r.ID()]++
	// Ranks call collectives in lockstep, so per-rank counters agree;
	// shifting spaces the tags of successive collectives apart.
	opts.TagBase = f.seqs[r.ID()] << 20
	return f.Run(r, jv, opts)
}

// Run executes one collective write with explicit options (WriteAll with
// per-call configuration).
func (f *File) Run(r *mpi.Rank, jv *fcoll.JobView, opts fcoll.Options) (fcoll.Result, error) {
	return fcoll.Run(r, jv, f, opts)
}

var _ fcoll.Writer = (*File)(nil)

// ReadSync performs an independent blocking read (POSIX pread): the
// rank leaves the MPI library for the duration.
func (f *File) ReadSync(r *mpi.Rank, off, size int64, buf []byte) {
	r.ExitMPI()
	f.f.Read(r.Proc(), r.Node(), off, size, buf)
	r.EnterMPI()
}

// ReadAsync starts an independent non-blocking read (aio_read), OS-
// progressed.
func (f *File) ReadAsync(r *mpi.Rank, off, size int64, buf []byte) *sim.Future {
	return f.f.AIORead(r.Node(), off, size, buf)
}

// ReadAll performs a collective read of the job view through the
// two-phase read engine (see fcoll.RunRead). In data mode each rank's
// view buffer is filled with its bytes.
func (f *File) ReadAll(r *mpi.Rank, jv *fcoll.JobView) (fcoll.Result, error) {
	opts := f.opts
	f.seqs[r.ID()]++
	opts.TagBase = f.seqs[r.ID()] << 20
	return fcoll.RunRead(r, jv, f, opts)
}

var _ fcoll.Reader = (*File)(nil)
