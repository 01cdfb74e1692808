package sim

import (
	"testing"
	"testing/quick"
)

// newServer returns a server on k, as an owner embedding one would
// initialise it.
func newServer(k *Kernel, bandwidth float64, perOp Time) *Server {
	s := new(Server)
	k.InitServer(s, bandwidth, perOp)
	return s
}

// submit enqueues a request of size bytes on s as its own flow and
// returns a future that completes when it has been served.
func submit(s *Server, size int64) *Future {
	f := newFuture(s.k)
	s.SubmitFlowOnStartTo(f, nil, size, nil)
	return f
}

// submitAfter is submit for a request that reaches s after delay.
func submitAfter(s *Server, delay Time, size int64) *Future {
	f := newFuture(s.k)
	s.SubmitFlowAfterOnArriveTo(f, nil, delay, size, nil)
	return f
}

func TestServerSingleRequest(t *testing.T) {
	k := NewKernel(1)
	// 1000 bytes/s, 10ns per op.
	s := newServer(k, 1000, 10)
	f := submit(s, 500) // 0.5s + 10ns
	k.Run()
	want := Time(float64(500)/1000*float64(Second)) + 10
	if f.DoneAt() != want {
		t.Fatalf("done at %v, want %v", f.DoneAt(), want)
	}
}

func TestServerFIFOQueueing(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 0) // 1 byte per ns
	f1 := submit(s, 100)
	f2 := submit(s, 50)
	if live := k.LiveRequests(); live != 2 {
		t.Fatalf("%d server requests live before the run, want 2", live)
	}
	k.Run()
	if live := k.LiveRequests(); live != 0 {
		t.Fatalf("%d server requests live after the run, want 0", live)
	}
	if f1.DoneAt() != 100 {
		t.Fatalf("first done at %v, want 100", f1.DoneAt())
	}
	if f2.DoneAt() != 150 {
		t.Fatalf("second done at %v, want 150 (queued behind first)", f2.DoneAt())
	}
}

func TestServerIdleGapResets(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 0)
	var done Time
	k.At(0, func() { submit(s, 10) })
	k.At(1000, func() {
		f := submit(s, 10)
		f.Then(Func(func() { done = k.Now() }))
	})
	k.Run()
	if done != 1010 {
		t.Fatalf("post-idle request done at %v, want 1010", done)
	}
}

func TestServerZeroBandwidthIsInfinite(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, 0, 7)
	f := submit(s, 1<<40)
	k.Run()
	if f.DoneAt() != 7 {
		t.Fatalf("done at %v, want 7 (PerOp only)", f.DoneAt())
	}
}

func TestServerNoise(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 0)
	s.Noise = func() float64 { return 2.0 }
	f := submit(s, 100)
	k.Run()
	if f.DoneAt() != 200 {
		t.Fatalf("noisy request done at %v, want 200", f.DoneAt())
	}
}

func TestServerNegativeNoiseClamped(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 0)
	s.Noise = func() float64 { return -3 }
	f := submit(s, 100)
	k.Run()
	if f.DoneAt() != 0 {
		t.Fatalf("done at %v, want 0 (noise clamped to 0)", f.DoneAt())
	}
}

func TestServerSubmitAfter(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 0)
	f := submitAfter(s, 40, 10)
	k.Run()
	if f.DoneAt() != 50 {
		t.Fatalf("done at %v, want 50", f.DoneAt())
	}
}

// observeBusy counts the requests s serves and sums their service
// intervals through ObserveService, the server's one busy-time path.
func observeBusy(s *Server) (ops *int, busy *Time) {
	ops, busy = new(int), new(Time)
	s.ObserveService = func(start, end Time) {
		*ops++
		*busy += end - start
	}
	return ops, busy
}

func TestServerStats(t *testing.T) {
	k := NewKernel(1)
	s := newServer(k, float64(Second), 5)
	nops, nbusy := observeBusy(s)
	submit(s, 10)
	submit(s, 20)
	k.Run()
	ops, busy := *nops, *nbusy
	// At 1 byte/ns the bytes served are the busy time less PerOp per op.
	if bytes := busy - Time(ops)*s.PerOp; ops != 2 || bytes != 30 {
		t.Fatalf("ops=%d bytes=%d, want 2/30", ops, bytes)
	}
	if busy != 40 { // (10+5)+(20+5)
		t.Fatalf("busy=%v, want 40", busy)
	}
}

// Property: for any request sequence, completion times are non-decreasing
// in submission order (FIFO) and total busy time equals the sum of
// individual service times.
func TestServerFIFOProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		k := NewKernel(3)
		s := newServer(k, float64(Second), 3)
		_, busy := observeBusy(s)
		futs := make([]*Future, len(sizes))
		for i, sz := range sizes {
			futs[i] = submit(s, int64(sz))
		}
		k.Run()
		var prev Time = -1
		var sum Time
		for i, f := range futs {
			if !f.Done() || f.DoneAt() < prev {
				return false
			}
			prev = f.DoneAt()
			sum += s.ServiceTime(int64(sizes[i]))
		}
		return *busy == sum
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
