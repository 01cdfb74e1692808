package mpi

import (
	"bytes"
	"testing"

	"collio/internal/probe"
	"collio/internal/sim"
	"collio/internal/simnet"
)

// testWorld builds a small world; ranksPerNode controls placement.
func testWorld(t testing.TB, nprocs, ranksPerNode int, seed int64, mut func(*Config)) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.NewKernel(seed)
	nodes := (nprocs + ranksPerNode - 1) / ranksPerNode
	net := simnet.New(k, simnet.Config{
		Nodes:          nodes,
		InterBandwidth: 3e9,
		InterLatency:   2 * sim.Microsecond,
		IntraBandwidth: 6e9,
		IntraLatency:   300 * sim.Nanosecond,
		MemBandwidth:   8e9,
	})
	cfg := DefaultConfig(nprocs, ranksPerNode)
	if mut != nil {
		mut(&cfg)
	}
	w, err := NewWorld(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, w
}

func TestEagerSendRecvData(t *testing.T) {
	k, w := testWorld(t, 2, 1, 1, nil)
	msg := []byte("hello, collective world")
	var got []byte
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, Bytes(msg))
		case 1:
			got = make([]byte, len(msg))
			r.Recv(0, 7, int64(len(msg)), got)
		}
	})
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	k, w := testWorld(t, 2, 2, 1, nil)
	msg := []byte{1, 2, 3, 4}
	var got []byte
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(10 * sim.Microsecond)
			r.Send(1, 0, Bytes(msg))
		case 1:
			got = make([]byte, 4)
			r.Recv(0, 0, 4, got)
		}
	})
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %v, want %v", got, msg)
	}
}

func TestUnexpectedQueueMatch(t *testing.T) {
	// Sender fires three eager messages before the receiver posts any
	// receive; messages must match in order by tag, through the
	// unexpected queue.
	k, w := testWorld(t, 2, 1, 1, nil)
	p := probe.New()
	w.SetProbe(0, p)
	var got [3]byte
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 3; i++ {
				r.Send(1, i, Bytes([]byte{byte(10 + i)}))
			}
		case 1:
			r.Compute(sim.Millisecond) // let everything land unexpectedly
			for i := 2; i >= 0; i-- {  // post out of order: tags must match
				var b [1]byte
				r.Recv(0, i, 1, b[:])
				got[i] = b[0]
			}
		}
	})
	k.Run()
	if got != [3]byte{10, 11, 12} {
		t.Fatalf("got %v, want [10 11 12]", got)
	}
	if un := p.Counters().Get(probe.CtrMPIUnexpPeak); un != 3 {
		t.Fatalf("unexpected-queue high water = %d, want 3", un)
	}
}

func TestRendezvousTransfersData(t *testing.T) {
	k, w := testWorld(t, 2, 1, 1, func(c *Config) { c.EagerLimit = 16 })
	msg := make([]byte, 64) // above eager limit -> rendezvous
	for i := range msg {
		msg[i] = byte(i)
	}
	got := make([]byte, 64)
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 3, Bytes(msg))
		case 1:
			r.Recv(0, 3, 64, got)
		}
	})
	k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("rendezvous data corrupted")
	}
}

func TestRendezvousStallsWithoutReceiverProgress(t *testing.T) {
	// The receiver posts its receive, then leaves MPI (Compute) before
	// the RTS arrives. The handshake cannot proceed until the receiver
	// re-enters MPI — the paper's §III-A progress effect.
	k, w := testWorld(t, 2, 1, 1, func(c *Config) { c.EagerLimit = 16 })
	computeEnd := 5 * sim.Millisecond
	var recvDone sim.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(100 * sim.Microsecond) // ensure receive not yet posted... posted actually; RTS arrives during Compute below
			r.Send(1, 3, Symbolic(1<<20))
		case 1:
			q := r.Irecv(0, 3, 1<<20, nil)
			r.Compute(computeEnd) // out of MPI while RTS arrives
			r.Wait(q)
			recvDone = r.Now()
		}
	})
	k.Run()
	if recvDone < computeEnd {
		t.Fatalf("rendezvous completed at %v, before receiver re-entered MPI at %v", recvDone, computeEnd)
	}
}

func TestEagerProceedsWithProgressThread(t *testing.T) {
	// With a progress thread, even an unposted-receive rendezvous can
	// handshake while the receiver computes: compare completion times.
	run := func(progress bool) sim.Time {
		k, w := testWorld(t, 2, 1, 1, func(c *Config) {
			c.EagerLimit = 16
			c.ProgressThread = progress
		})
		var sendDone sim.Time
		w.Launch(func(r *Rank) {
			switch r.ID() {
			case 0:
				q := r.Isend(1, 3, Symbolic(1<<20))
				r.Wait(q)
				sendDone = r.Now()
			case 1:
				q := r.Irecv(0, 3, 1<<20, nil)
				r.Compute(20 * sim.Millisecond)
				r.Wait(q)
			}
		})
		k.Run()
		return sendDone
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("progress thread did not help: with=%v without=%v", with, without)
	}
}

func TestSymbolicTransferChargesTime(t *testing.T) {
	k, w := testWorld(t, 2, 1, 1, nil)
	var done sim.Time
	const size = 10 << 20
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, Symbolic(size))
		case 1:
			r.Recv(0, 0, size, nil)
			done = r.Now()
		}
	})
	k.Run()
	// 10 MiB at 3 GB/s is ~3.3 ms; anything in [3ms, 10ms] is sane.
	if done < 3*sim.Millisecond || done > 10*sim.Millisecond {
		t.Fatalf("10MiB transfer finished at %v, outside sane window", done)
	}
}

func TestSelfSend(t *testing.T) {
	k, w := testWorld(t, 1, 1, 1, nil)
	var got [4]byte
	w.Launch(func(r *Rank) {
		q := r.Isend(0, 5, Bytes([]byte{9, 8, 7, 6}))
		r.Recv(0, 5, 4, got[:])
		r.Wait(q)
	})
	k.Run()
	if got != [4]byte{9, 8, 7, 6} {
		t.Fatalf("self-send got %v", got)
	}
}

func TestManySendersToOneReceiver(t *testing.T) {
	const n = 8
	k, w := testWorld(t, n, 2, 1, nil)
	sum := 0
	w.Launch(func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i < n; i++ {
				var b [1]byte
				r.Recv(i, 1, 1, b[:])
				sum += int(b[0])
			}
		} else {
			r.Send(0, 1, Bytes([]byte{byte(r.ID())}))
		}
	})
	k.Run()
	want := 0
	for i := 1; i < n; i++ {
		want += i
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestElapsedReflectsSlowestRank(t *testing.T) {
	k, w := testWorld(t, 3, 3, 1, nil)
	w.Launch(func(r *Rank) {
		r.Compute(sim.Time(r.ID()) * sim.Millisecond)
	})
	k.Run()
	if w.Elapsed() != 2*sim.Millisecond {
		t.Fatalf("Elapsed = %v, want 2ms", w.Elapsed())
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() sim.Time {
		k, w := testWorld(t, 6, 2, 42, nil)
		w.Launch(func(r *Rank) {
			next := (r.ID() + 1) % r.Size()
			prev := (r.ID() - 1 + r.Size()) % r.Size()
			for i := 0; i < 5; i++ {
				sq := r.Isend(next, i, Symbolic(1000*int64(r.ID()+1)))
				rq := r.Irecv(prev, i, 1<<20, nil)
				r.Wait(sq, rq)
			}
		})
		k.Run()
		return w.Elapsed()
	}
	if run() != run() {
		t.Fatal("simulation not deterministic")
	}
}

func TestInvalidRankPanics(t *testing.T) {
	k, w := testWorld(t, 2, 2, 1, nil)
	panicked := false
	w.Launch(func(r *Rank) {
		if r.ID() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				r.Isend(99, 0, Symbolic(1))
			}()
		}
	})
	k.Run()
	if !panicked {
		t.Fatal("Isend to invalid rank did not panic")
	}
}
