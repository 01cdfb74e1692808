package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEventTieBreakBySubmissionOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of submission order: %v", got)
		}
	}
}

func TestAtClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := Time(-1)
	k.At(100, func() {
		k.At(50, func() { fired = k.Now() }) // in the past: clamp to 100
	})
	k.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamped to 100", fired)
	}
}

func TestAfterNegativeDelay(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(-5, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.At(1, func() { n++; k.Stop() })
	k.At(2, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("ran %d events after Stop, want 1", n)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel(1)
	var t1, t2 Time
	k.Spawn("p", 0, func(p *Proc) {
		t1 = p.Now()
		p.Sleep(500)
		t2 = p.Now()
	})
	k.Run()
	if t1 != 0 || t2 != 500 {
		t.Fatalf("sleep times = %v,%v, want 0,500", t1, t2)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		k.Spawn("a", 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Sleep(10)
			}
		})
		k.Spawn("b", 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Sleep(10)
			}
		})
		k.Run()
		return log
	}
	l1, l2 := run(), run()
	if len(l1) != 6 || len(l2) != 6 {
		t.Fatalf("lengths: %d %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("non-deterministic interleaving: %v vs %v", l1, l2)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel(1)
	var start Time
	k.SpawnAt(250, "late", 0, func(p *Proc) { start = p.Now() })
	k.Run()
	if start != 250 {
		t.Fatalf("start = %v, want 250", start)
	}
}

// TestDeadlockDetection checks a deadlocked Run panics, and that the
// panic carries what the Explain hook reports.
func TestDeadlockDetection(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "sim: deadlock") || !strings.HasSuffix(msg, "; lock held") {
			t.Fatalf("panic %q, want a deadlock ending in the explanation", msg)
		}
	}()
	k := NewKernel(1)
	k.Explain(func() error { return errors.New("lock held") })
	f := newFuture(k)
	k.Spawn("stuck", 0, func(p *Proc) { p.Wait(f) }) // never completed
	k.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{3 * Microsecond, "3.000us"},
		{2 * Millisecond, "2.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds = %v, want 2", s)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewKernel(7).Rand().Int63()
	b := NewKernel(7).Rand().Int63()
	c := NewKernel(8).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different random streams")
	}
	if a == c {
		t.Fatal("different seeds produced identical first values (suspicious)")
	}
}

// TestStopDrainsPendingEvents pins the Stop() leak fix: a stopped kernel
// must release every still-queued event — closures, process references
// and pooled server requests — instead of pinning the remaining heap for
// the kernel's lifetime.
func TestStopDrainsPendingEvents(t *testing.T) {
	k := NewKernel(1)
	srv := newServer(k, 1e9, Microsecond)
	for i := 0; i < 8; i++ {
		submit(srv, 1<<20)
		k.After(Time(i+1)*Millisecond, func() {})
	}
	ran := 0
	k.At(0, func() { ran++; k.Stop() })
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("stopped kernel retains %d pending events", k.Pending())
	}
	if ran != 1 {
		t.Fatalf("ran %d events, want exactly the stopping one", ran)
	}
	// The in-service request's completion was drained, so its request
	// object must be back in the kernel's pool, not leaked; the seven
	// still queued stay with their server.
	if live := k.LiveRequests(); live != 7 {
		t.Fatalf("%d server requests live after the drain, want the 7 queued", live)
	}

	// Stop in the middle of a same-instant burst: the lane holds delayed
	// submits' arrival events and a zero-time completion, each carrying
	// a pooled request.
	k = NewKernel(1)
	ipc := newServer(k, 0, 0)
	const burst = 100 // past the lane's initial capacity
	inFlight := 0
	k.At(5, func() {
		for i := 0; i < burst; i++ {
			submitAfter(ipc, 0, 64)
		}
		submit(ipc, 64)
		inFlight = k.LiveRequests()
		k.Stop()
	})
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("stopped kernel retains %d pending events", k.Pending())
	}
	if inFlight != burst+1 {
		t.Fatalf("%d server requests live during the burst, want %d", inFlight, burst+1)
	}
	if live := k.LiveRequests(); live != 0 {
		t.Fatalf("%d server requests live after the drain, want 0", live)
	}
	for i, e := range k.lane.buf {
		if e != (event{}) {
			t.Fatalf("drained lane slot %d still holds an event", i)
		}
	}
}

// queueMark is the action of one event in TestQueueMatchesReferenceOrder.
// It has a field so that every mark is a distinct pointer.
type queueMark struct{ id int }

func (*queueMark) fire() {}

// TestQueueMatchesReferenceOrder checks the two-part queue against a
// reference: with same-instant, clamped-to-now and later pushes
// interleaved with pops, every pop must return the smallest pending
// event in (at, seq) order, the order one heap over all events gives.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkQueueOrder(t, seed)
	}
}

// refBefore is the reference order, written out apart from
// event.before: time, then scheduling sequence.
func refBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func checkQueueOrder(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	var ref []event
	find := func(a Action) event {
		for i := 0; i < k.lane.n; i++ {
			if e := k.lane.buf[(k.lane.head+i)&(len(k.lane.buf)-1)]; e.act == a {
				return e
			}
		}
		for _, e := range k.events {
			if e.act == a {
				return e
			}
		}
		t.Fatalf("seed %d: pushed event not found in either queue part", seed)
		return event{}
	}
	push := func() {
		m := &queueMark{id: len(ref)}
		switch r := rng.Intn(8); {
		case r < 3: // same instant
			k.push(k.now, event{act: m})
		case r < 4: // in the past: clamped to now
			k.push(k.now-Time(1+rng.Intn(5)), event{act: m})
		default: // later, a few distinct instants
			k.push(k.now+Time(1+rng.Intn(4)), event{act: m})
		}
		ref = append(ref, find(m))
	}
	pop := func() {
		min := 0
		for i := range ref {
			if refBefore(&ref[i], &ref[min]) {
				min = i
			}
		}
		e := k.next()
		if e.act != ref[min].act {
			t.Fatalf("seed %d: popped (at %v, seq %d), reference order wants (at %v, seq %d)",
				seed, e.at, e.seq, ref[min].at, ref[min].seq)
		}
		ref = append(ref[:min], ref[min+1:]...)
		k.now = e.at
	}
	for step := 0; step < 4000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			push()
		} else {
			pop()
		}
		if k.Pending() != len(ref) {
			t.Fatalf("seed %d: Pending() = %d, reference holds %d", seed, k.Pending(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
}

// TestEventSize pins the queued event at 32 bytes: the heap moves
// events by value, so every added field is paid on each sift.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("sizeof(event) = %d bytes, want 32", n)
	}
}

// TestEventQueueHeapProperty stress-tests the 4-ary heap against a known
// ordering: many events at random times must fire in (time, seq) order.
func TestEventQueueHeapProperty(t *testing.T) {
	k := NewKernel(42)
	const n = 5000
	var fired []Time
	rng := k.Rand()
	for i := 0; i < n; i++ {
		at := Time(rng.Int63n(1000))
		k.At(at, func() { fired = append(fired, k.Now()) })
	}
	k.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %v after %v: heap order violated", i, fired[i], fired[i-1])
		}
	}
}
