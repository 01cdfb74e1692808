// Package sim implements a deterministic discrete-event simulation (DES)
// kernel used as the execution substrate for the simulated cluster.
//
// The kernel advances a virtual clock (nanosecond resolution) by firing
// events in (time, sequence) order. Two kinds of activity coexist:
//
//   - Callback events, run inline in the kernel goroutine. These are used
//     for resource bookkeeping (network deliveries, storage completions).
//   - Processes (Proc), long-running coroutines representing MPI ranks or
//     OS service threads. The kernel resumes and suspends each process
//     body by a direct coroutine switch (iter.Pull), so at most one entity
//     (kernel or a single process) executes at any moment, which makes the
//     simulation fully deterministic for a fixed seed.
//
// Determinism is load-bearing: every experiment in this repository is
// reproducible bit-for-bit given its seed, which is how the statistical
// methodology of the reproduced paper (multi-seed series, min-of-series)
// is implemented.
//
// A Kernel and everything attached to it (servers, futures, processes)
// belong to exactly one experiment worker: the parallel sweep runner in
// internal/exp gives every worker its own kernel and never shares one
// across goroutines (enforced statically by collvet's kernelshare
// analyzer).
package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Action is what an event does when it fires. The hot schedule sites
// are pre-bound: a process wakeup is the *Proc itself, a server
// completion or arrival is its pooled *serverReq, and a completion
// forward (Then, CompleteAfter) is the target *Future. Generic
// callbacks go through Func. A two-word interface keeps the event at
// 32 bytes: the heap moves events by value, and copy cost grows with
// every byte.
//
// Only this package implements Action. Other packages hand one over —
// to Future.Then, Kernel.AfterAction or a caller-owned server submit —
// as a *Future, which firing completes, a Func, which firing calls, or
// an Event, which firing calls its method.
type Action interface{ fire() }

// Func adapts a plain callback to Action. A func value is one pointer,
// so the conversion does not allocate (the closure behind it may have).
type Func func()

func (f Func) fire() { f() }

// Event is an Action that calls a method of a pooled object: firing it
// calls fn(obj). fn is a method expression such as (*T).step, a static
// function, so binding one allocates nothing, where a method value
// (obj.step) allocates a closure per object. An object keeps one Event
// per step of its event chain, binds each once with NewEvent when the
// object is made (a pooled one as its Pool slab is made), and
// registers them for the rest of its life without allocating. An Event
// fires only in kernel context.
type Event[T any] struct {
	obj *T
	fn  func(*T)
}

// NewEvent returns the Event calling fn(obj).
func NewEvent[T any](obj *T, fn func(*T)) Event[T] { return Event[T]{obj: obj, fn: fn} }

func (e *Event[T]) fire() { e.fn(e.obj) }

// event is one scheduled occurrence. Events are stored by value inside
// the kernel's queues, so scheduling allocates nothing for the event
// itself.
type event struct {
	at  Time
	seq int64
	act Action
}

// before orders events by (time, sequence): same-instant events fire in
// the order they were scheduled.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap of events stored by value. Compared to
// container/heap's binary heap of *event it avoids both the per-event
// allocation and the interface boxing on every push/pop, and the wider
// fan-out halves the tree depth — fewer cache lines touched per
// operation on the deep queues a 500-rank run builds.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	s := *q
	// Sift up: move the hole toward the root until e fits.
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// popMin removes and returns the earliest event. The vacated slot is
// zeroed so the queue never retains closures or process references
// beyond an event's lifetime.
func (q *eventQueue) popMin() event {
	s := *q
	min := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*q = s
	if n > 0 {
		// Sift down: move the hole from the root until last fits.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if s[j].before(&s[m]) {
					m = j
				}
			}
			if !s[m].before(&last) {
				break
			}
			s[i] = s[m]
			i = m
		}
		s[i] = last
	}
	return min
}

// ring is a FIFO over a power-of-two circular buffer: the kernel's
// same-instant lane. Unlike a slice that appends at the tail and
// advances its head, which reallocates once per capacity's worth of
// traffic however short the queue stays, a ring reuses one buffer and
// grows only with the peak length.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest entry, zeroing its slot so the
// ring never retains references past an entry's lifetime.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unrolling the wrapped contents to the front.
func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// Kernel is the discrete-event simulation engine. A Kernel is not safe for
// use from multiple user goroutines; all interaction happens either from
// the goroutine calling Run (via callback events) or from Proc coroutines
// managed by the kernel itself.
//
// Pending events live in two parts. The lane holds those scheduled for
// the current instant, in push order; the heap holds everything else.
// Every heap event was pushed before its instant (a zero-delay or
// clamped push goes to the lane), so a heap event due now was pushed
// before now and has a smaller seq than every lane event.
// next therefore drains heap events due now, then the lane, before time
// advances. Lane events share at, and their push order is their seq
// order. So the two parts pop in exactly event.before order, the order
// a single heap would give.
type Kernel struct {
	now    Time
	seq    int64
	events eventQueue  // heap part: events with at > schedAt
	lane   ring[event] // same-instant part: at == schedAt == now
	rng    *rand.Rand
	nprocs int // live process count (debugging / deadlock detection)
	// running is the process Proc.fire resumed, nil in kernel context.
	running *Proc

	// stopped is set by Stop; Run drains no further events.
	stopped bool

	// ObserveDepth, if non-nil, is called by Run after each fired event
	// with the current virtual time and the remaining event-queue depth.
	// Observation only (host-side appends; no scheduling, no
	// randomness).
	ObserveDepth func(at Time, depth int)

	// fired counts fired events (Fired).
	fired int64

	// explain describes the open protocol state a deadlock leaves
	// behind (Explain); nil when no model layer set it.
	explain func() error

	// reqs pools the server requests of every Server on this kernel. A busy server turns over one request per
	// served operation; pooling them removes the dominant steady-state
	// allocation of the DES hot path, and one pool per kernel warms up
	// once per world rather than once per server. Requests return on
	// completion (Server.finish) and when a stopped kernel drains its
	// queue (drain).
	reqs Pool[serverReq]
	// flows is the flow table of every Server on this kernel: each
	// keyed flow with a queued request, keyed by (server, flow key),
	// maps to its newest queued request. An entry opens when a flow's
	// first request queues behind a busy server and closes when its
	// last queued request enters service, so one table serves every
	// server and flow of the run.
	flows map[flowKey]*serverReq
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The same seed always produces the same simulation trajectory.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:    rand.New(rand.NewSource(seed)),
		events: make(eventQueue, 0, 64),
		reqs:   NewPool(func(req *serverReq) **serverReq { return &req.next }, nil),
		flows:  make(map[flowKey]*serverReq),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from kernel or process context.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// push clamps t to now, stamps the next sequence number and enqueues e.
// The clamp runs before the sequence increment so a rejected time can
// never burn a seq (the ordering of the two was previously entangled in
// At).
func (k *Kernel) push(t Time, e event) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	e.at = t
	e.seq = k.seq
	if t == k.now {
		k.lane.push(e)
	} else {
		k.events.push(e)
	}
}

// next removes and returns the earliest pending event: heap events due
// now (scheduled earlier) first, then the lane, then the heap's next
// instant.
func (k *Kernel) next() event {
	if k.lane.n > 0 && (len(k.events) == 0 || k.events[0].at != k.now) {
		return k.lane.pop()
	}
	return k.events.popMin()
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	k.push(t, event{act: Func(fn)})
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) {
	k.AfterAction(d, Func(fn))
}

// CompleteAfter completes f d nanoseconds from now. It schedules the
// same event as After(d, f.Complete) without allocating the method
// value.
func (k *Kernel) CompleteAfter(d Time, f *Future) {
	k.AfterAction(d, f)
}

// AfterAction schedules a pre-bound action after d: a process wakeup
// (every Sleep, Yield and future resume), a server completion, a
// completion forward, a pooled object's Event.
func (k *Kernel) AfterAction(d Time, a Action) {
	if d < 0 {
		d = 0
	}
	k.push(k.now+d, event{act: a})
}

// Fired returns the number of events k has fired. It names the event
// being fired: a handle lent for one event (simnet.Transfer) records it
// and checks it on use.
func (k *Kernel) Fired() int64 { return k.fired }

// Stop aborts the simulation: Run returns after the current event and
// releases every still-pending event. Stopping is terminal — a stopped
// kernel keeps its final clock but schedules nothing further.
func (k *Kernel) Stop() { k.stopped = true }

// Pending returns the number of scheduled events not yet fired. After a
// stopped Run returns it is zero: the queue has been drained.
func (k *Kernel) Pending() int { return len(k.events) + k.lane.n }

// Run fires events in order until the event queue is empty or Stop is
// called. It returns the final virtual time.
func (k *Kernel) Run() Time {
	for !k.stopped && k.Pending() > 0 {
		e := k.next()
		k.now = e.at
		k.fired++
		e.act.fire()
		if k.ObserveDepth != nil {
			k.ObserveDepth(k.now, k.Pending())
		}
	}
	if k.stopped {
		k.drain()
	} else if k.nprocs > 0 {
		msg := fmt.Sprintf("sim: deadlock — %d process(es) still blocked with no pending events at t=%v", k.nprocs, k.now)
		if k.explain != nil {
			if err := k.explain(); err != nil {
				msg += "; " + err.Error()
			}
		}
		panic(msg)
	}
	return k.now
}

// Explain sets fn to name, when Run finds the processes deadlocked, the
// protocol state a model layer holds open — the likely reason they
// wait forever. Its error is appended to the deadlock panic; a nil
// error adds nothing.
func (k *Kernel) Explain(fn func() error) { k.explain = fn }

// drain releases every pending event of a stopped kernel: closures and
// process references are dropped and pooled server requests returned to
// the pool. Without this a stopped kernel pinned the whole
// remaining event heap — futures, procs and their goroutine stacks — for
// as long as the caller held the kernel.
func (k *Kernel) drain() {
	for k.lane.n > 0 {
		e := k.lane.pop()
		k.releaseAction(e.act)
	}
	for i := range k.events {
		e := &k.events[i]
		k.releaseAction(e.act)
		*e = event{}
	}
	k.events = k.events[:0]
}

// releaseAction returns a drained event's pooled server request to the
// pool.
func (k *Kernel) releaseAction(a Action) {
	if req, ok := a.(*serverReq); ok {
		k.releaseReq(req)
	}
}
