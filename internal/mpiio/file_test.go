package mpiio

import (
	"bytes"
	"testing"

	"collio/internal/datatype"
	"collio/internal/fcoll"
	"collio/internal/mpi"
	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simfs"
	"collio/internal/simnet"
)

func testStack(t *testing.T, nprocs int) (*sim.Kernel, *mpi.World, *File) {
	t.Helper()
	k, w, f, _ := probedStack(t, nprocs)
	return k, w, f
}

// probedStack is testStack with one probe attached to every layer.
func probedStack(t *testing.T, nprocs int) (*sim.Kernel, *mpi.World, *File, *probe.Probe) {
	t.Helper()
	k := sim.NewKernel(1)
	net := simnet.New(k, simnet.Config{
		Nodes:          nprocs,
		InterBandwidth: 3e9,
		InterLatency:   2 * sim.Microsecond,
		IntraBandwidth: 6e9,
		IntraLatency:   300 * sim.Nanosecond,
		MemBandwidth:   8e9,
	})
	w, err := mpi.NewWorld(k, net, mpi.DefaultConfig(nprocs, 1))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := simfs.New(k, net, simfs.Config{
		StripeSize:      64 << 10,
		NumTargets:      4,
		TargetBandwidth: 500e6,
		TargetPerOp:     20 * sim.Microsecond,
		NetLatency:      5 * sim.Microsecond,
		ClientPerOp:     5 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := probe.New()
	net.SetSinks(0, p, nil)
	w.SetProbe(0, p)
	fs.SetSinks(0, p, nil)
	return k, w, Open(w, fs.Open("f")), p
}

func TestWriteSyncLeavesMPI(t *testing.T) {
	// During a synchronous write the rank must be outside the MPI
	// library (no protocol progress) and back inside afterwards.
	k, w, f := testStack(t, 1)
	var during, after bool
	w.Launch(func(r *mpi.Rank) {
		r.EnterMPI()
		// Sample the progress state from a kernel event scheduled to
		// fire mid-write.
		k.After(sim.Millisecond/2, func() { during = r.InMPI() })
		f.WriteSync(r, 0, 8<<20, nil) // several ms at 500 MB/s
		after = r.InMPI()
		r.ExitMPI()
	})
	k.Run()
	if during {
		t.Fatal("rank was inside MPI during a blocking write")
	}
	if !after {
		t.Fatal("rank did not re-enter MPI after the write")
	}
}

// TestWriteSyncAccountsIOTime: the blocking write's file-access time is
// the file-system write span the probe records, and the rank spends
// exactly that plus the client's syscall overhead inside WriteSync.
func TestWriteSyncAccountsIOTime(t *testing.T) {
	k, w, f, p := probedStack(t, 1)
	var inWrite sim.Time
	w.Launch(func(r *mpi.Rank) {
		r.EnterMPI()
		t0 := r.Now()
		f.WriteSync(r, 0, 1<<20, nil)
		inWrite = r.Now() - t0
		r.ExitMPI()
	})
	k.Run()
	var spans []probe.Event
	for _, ev := range p.Events() {
		if ev.Kind == probe.KindFSWrite {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 1 || spans[0].Dur <= 0 {
		t.Fatalf("file-system write spans = %+v, want one of positive length", spans)
	}
	if want := 5*sim.Microsecond + spans[0].Dur; inWrite != want {
		t.Fatalf("rank spent %v in WriteSync, want %v (ClientPerOp + write span)", inWrite, want)
	}
}

func TestWriteAsyncReturnsImmediately(t *testing.T) {
	k, w, f := testStack(t, 1)
	w.Launch(func(r *mpi.Rank) {
		start := r.Now()
		fut := f.WriteAsync(r, 0, 8<<20, nil)
		if r.Now() != start {
			t.Error("WriteAsync advanced the caller's clock")
		}
		r.EnterMPI()
		r.WaitFutures(fut)
		r.ExitMPI()
		if r.Now() == start {
			t.Error("write completed in zero time")
		}
	})
	k.Run()
}

func TestWriteAllDataIntegrity(t *testing.T) {
	const np = 4
	k, w, f := testStack(t, np)
	ranks := make([]fcoll.RankView, np)
	for i := range ranks {
		b := make([]byte, 100<<10)
		for j := range b {
			b[j] = byte(i*31 + j%127)
		}
		ranks[i] = fcoll.RankView{
			Extents: []datatype.Extent{{Off: int64(i) * 100 << 10, Len: 100 << 10}},
			Data:    b,
		}
	}
	jv, err := fcoll.NewJobView(ranks)
	if err != nil {
		t.Fatal(err)
	}
	f.SetCollectiveOptions(fcoll.Options{Algorithm: fcoll.WriteOverlap, BufferSize: 128 << 10})
	w.Launch(func(r *mpi.Rank) {
		if _, err := f.WriteAll(r, jv); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	k.Run()
	if !bytes.Equal(f.Raw().ReadBack(0, int64(np)*100<<10), jv.ExpectedFile()) {
		t.Fatal("collective write corrupted data")
	}
}

func TestTagBasesAdvancePerCollective(t *testing.T) {
	const np = 2
	k, w, f, p := probedStack(t, np)
	jv, err := fcoll.NewJobView([]fcoll.RankView{
		{Extents: []datatype.Extent{{Off: 0, Len: 4 << 10}}},
		{Extents: []datatype.Extent{{Off: 4 << 10, Len: 4 << 10}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	w.Launch(func(r *mpi.Rank) {
		for i := 0; i < 3; i++ {
			if _, err := f.WriteAll(r, jv); err != nil {
				t.Errorf("%v", err)
			}
		}
		if r.ID() == 0 {
			count = 3
		}
	})
	k.Run()
	if count != 3 {
		t.Fatal("collectives did not complete")
	}
	if p.Counters().Get(probe.CtrFSWrites) == 0 {
		t.Fatal("no writes reached the file system")
	}
}

func TestCollectiveOptionsRoundTrip(t *testing.T) {
	_, _, f := testStack(t, 1)
	opts := fcoll.Options{Algorithm: fcoll.CommOverlap, BufferSize: 1 << 20, Aggregators: 2}
	f.SetCollectiveOptions(opts)
	got := f.CollectiveOptions()
	if got.Algorithm != fcoll.CommOverlap || got.BufferSize != 1<<20 || got.Aggregators != 2 {
		t.Fatalf("options round trip: %+v", got)
	}
}
