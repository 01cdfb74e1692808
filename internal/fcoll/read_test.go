package fcoll_test

import (
	"bytes"
	"fmt"
	"testing"

	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/sim"
)

// prepFile writes the expected image into the simulated file host-side
// so collective reads have something to fetch.
func prepFile(rg *rig, jv *fcoll.JobView) {
	img := jv.ExpectedFile()
	raw := rg.file.Raw()
	rg.k.Spawn("prep", 0, func(p *sim.Proc) {
		raw.Write(p, 0, 0, int64(len(img)), img)
	})
}

// readBuffers replaces each rank's Data with a zeroed destination
// buffer of the right size.
func readBuffers(jv *fcoll.JobView) {
	for i := range jv.Ranks {
		jv.Ranks[i].Data = make([]byte, jv.Ranks[i].Size())
	}
}

// verifyRead checks every rank's buffer holds exactly its view bytes.
func verifyRead(t *testing.T, jv *fcoll.JobView, want *fcoll.JobView) {
	t.Helper()
	img := want.ExpectedFile()
	for i := range jv.Ranks {
		rv := &jv.Ranks[i]
		var src int64
		for _, e := range rv.Extents {
			if !bytes.Equal(rv.Data[src:src+e.Len], img[e.Off:e.End()]) {
				t.Fatalf("rank %d extent at %d corrupted", i, e.Off)
			}
			src += e.Len
		}
	}
}

// TestCollectiveReadAllAlgorithms round-trips: a reference image is
// placed in the file, each overlap algorithm collectively reads it, and
// every rank's buffer must match its view bytes exactly.
func TestCollectiveReadAllAlgorithms(t *testing.T) {
	for _, algo := range fcoll.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			rg := newRig(t, 6, 2, 31)
			ref := blockView(t, 6, 40<<10, true, 17)
			prepFile(rg, ref)

			jv := blockView(t, 6, 40<<10, true, 17)
			readBuffers(jv)
			rg.file.SetCollectiveOptions(fcoll.Options{
				Algorithm:  algo,
				BufferSize: 32 << 10,
			})
			rg.w.Launch(func(r *mpi.Rank) {
				res, err := rg.file.ReadAll(r, jv)
				if err != nil {
					t.Errorf("rank %d: %v", r.ID(), err)
					return
				}
				if res.Cycles < 2 {
					t.Errorf("rank %d: cycles=%d, want multiple", r.ID(), res.Cycles)
				}
			})
			rg.k.Run()
			verifyRead(t, jv, ref)
		})
	}
}

// TestCollectiveReadStrided exercises the staged-unpack path (multi-
// segment placement at the destination ranks).
func TestCollectiveReadStrided(t *testing.T) {
	for _, algo := range fcoll.Algorithms {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			rg := newRig(t, 4, 2, 37)
			ref := stridedView(t, 4, 3000, 24, true, 19)
			prepFile(rg, ref)

			jv := stridedView(t, 4, 3000, 24, true, 19)
			readBuffers(jv)
			rg.file.SetCollectiveOptions(fcoll.Options{
				Algorithm:  algo,
				BufferSize: 24 << 10,
			})
			rg.w.Launch(func(r *mpi.Rank) {
				if _, err := rg.file.ReadAll(r, jv); err != nil {
					t.Errorf("rank %d: %v", r.ID(), err)
				}
			})
			rg.k.Run()
			verifyRead(t, jv, ref)
		})
	}
}

// TestCollectiveReadRejectsOneSided documents the write-focused scope:
// the scatter has no one-sided implementation.
func TestCollectiveReadRejectsOneSided(t *testing.T) {
	rg := newRig(t, 2, 2, 3)
	jv := blockView(t, 2, 8<<10, false, 1)
	rg.file.SetCollectiveOptions(fcoll.Options{
		Algorithm:  fcoll.NoOverlap,
		Primitive:  fcoll.OneSidedFence,
		BufferSize: 8 << 10,
	})
	errs := 0
	rg.w.Launch(func(r *mpi.Rank) {
		if _, err := rg.file.ReadAll(r, jv); err != nil {
			errs++
		}
	})
	rg.k.Run()
	if errs != 2 {
		t.Fatalf("one-sided read accepted on %d ranks", 2-errs)
	}
}

// TestReadAheadOverlapsScatter checks the performance property: the
// read-ahead schedule (WriteOverlap dual) beats the no-overlap read for
// a multi-cycle job.
func TestReadAheadOverlapsScatter(t *testing.T) {
	elapsed := func(algo fcoll.Algorithm) sim.Time {
		rg := newRig(t, 6, 2, 41)
		ref := blockView(t, 6, 256<<10, false, 0)
		rg.file.SetCollectiveOptions(fcoll.Options{
			Algorithm:  algo,
			BufferSize: 64 << 10,
		})
		rg.w.Launch(func(r *mpi.Rank) {
			if _, err := rg.file.ReadAll(r, ref); err != nil {
				t.Errorf("%v", err)
			}
		})
		rg.k.Run()
		return rg.w.Elapsed()
	}
	base := elapsed(fcoll.NoOverlap)
	ahead := elapsed(fcoll.WriteOverlap)
	if ahead >= base {
		t.Fatalf("read-ahead (%v) not faster than no-overlap read (%v)", ahead, base)
	}
}

// TestWriteThenReadRoundTrip is the full-stack integration: collective
// write with one algorithm, collective read with another, byte-exact.
func TestWriteThenReadRoundTrip(t *testing.T) {
	for trial, pair := range [][2]fcoll.Algorithm{
		{fcoll.WriteComm2Overlap, fcoll.WriteOverlap},
		{fcoll.NoOverlap, fcoll.WriteComm2Overlap},
		{fcoll.CommOverlap, fcoll.NoOverlap},
	} {
		t.Run(fmt.Sprintf("%v_then_%v", pair[0], pair[1]), func(t *testing.T) {
			rg := newRig(t, 4, 2, int64(51+trial))
			src := randomDenseView(t, 4, 120_000, int64(trial+60))
			rg.file.SetCollectiveOptions(fcoll.Options{Algorithm: pair[0], BufferSize: 16 << 10})
			rg.w.Launch(func(r *mpi.Rank) {
				if _, err := rg.file.WriteAll(r, src); err != nil {
					t.Errorf("write: %v", err)
				}
				rg.file.SetCollectiveOptions(fcoll.Options{Algorithm: pair[1], BufferSize: 16 << 10})
				if _, err := rg.file.ReadAll(r, rdView(src)); err != nil {
					t.Errorf("read: %v", err)
				}
			})
			rg.k.Run()
			verifyRead(t, rdView(src), src)
		})
	}
}

// rdView builds a read destination view with the same extents as src.
// It is shared by all ranks (the simulator's single address space), so
// construct it once.
var rdViews = map[*fcoll.JobView]*fcoll.JobView{}

func rdView(src *fcoll.JobView) *fcoll.JobView {
	if v, ok := rdViews[src]; ok {
		return v
	}
	ranks := make([]fcoll.RankView, len(src.Ranks))
	for i := range src.Ranks {
		ranks[i].Extents = src.Ranks[i].Extents
		ranks[i].Data = make([]byte, src.Ranks[i].Size())
	}
	v, err := fcoll.NewJobView(ranks)
	if err != nil {
		panic(err)
	}
	rdViews[src] = v
	return v
}
