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
// 48 bytes: the heap moves events by value, and copy cost grows with
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
	at      Time
	schedAt Time // virtual time at which the event was scheduled
	seq     int64
	crec    *evRecord // execution record of the creating event (partitioned runs only)
	act     Action
}

// evRecord is the execution record of one fired event in a partitioned
// run. Events created while the record's event executes point at it via
// event.crec, and ord stands in for the creator's position in the
// global sequential order:
//
//   - While the event's window is still open, ord is the kernel's local
//     execution index. Two records are only ever compared in this state
//     when both creators executed in the current window, which (because
//     cross-LP events always land in a later window) forces both onto
//     the same LP — where local execution order IS sequential order.
//   - At the window barrier the partition merges all executed records
//     into the global sequential order and rewrites ord with the global
//     sequence number, after which the record is comparable across LPs.
//
// Mixed comparisons (one ord local, one global) cannot reach the ord
// field: they imply one creator executed in the current window and one
// in an earlier window, so the events' schedAt values differ and decide
// first. Records for scheduling done before Run (process spawns, model
// construction) carry negative ords in construction order, below every
// execution ord — matching the sequential rule that setup-created
// events precede all execution-created events at equal key prefix.
type evRecord struct {
	at      Time
	schedAt Time
	seq     int64
	crec    *evRecord
	ord     int64
}

// before orders events by (time, schedule-time, creator order,
// sequence).
//
// On a single sequential kernel crec is always nil and this is exactly
// the historical (time, sequence) order: the clock is non-decreasing
// while events are scheduled, so the sequence number is monotone in
// schedAt and the extra fields never reorder anything. The refinement
// matters only under partitioned execution, where events scheduled by
// different LPs meet in one queue: same-instant events created at the
// same instant are ordered by their creators' global execution order
// (evRecord.ord), then by the creating kernel's sequence counter —
// which is precisely the sequential kernel's creation order. That is
// what makes the parallel run's event interleaving — and hence every
// trace/probe digest — bit-identical to the sequential run.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.schedAt != o.schedAt {
		return e.schedAt < o.schedAt
	}
	if e.crec != o.crec {
		if a, b := e.crec.ord, o.crec.ord; a != b {
			return a < b
		}
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
// Every heap event has at > schedAt (a zero-delay or clamped push goes
// to the lane), so a heap event due now was scheduled before now and
// precedes every lane event in (at, schedAt, ...) order. next therefore
// drains heap events due now, then the lane, before time advances. Lane
// events share at and schedAt, and their push order is their
// (creator, seq) order: seq grows with every push, and under
// partitioned execution the creator record's ord grows with every
// fired event in the window. So the two parts pop in exactly event.before
// order, the order a single heap would give.
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

	// ObserveDepth, if non-nil, is called by the sequential Run loop
	// after each fired event with the current virtual time and the
	// remaining event-queue depth. Observation only (host-side appends;
	// no scheduling, no randomness). The partitioned executor does not
	// call it — per-LP queue depth describes the execution engine, not
	// the modelled system, and has no sequential counterpart.
	ObserveDepth func(at Time, depth int)

	// lp and part identify this kernel as one logical process of a
	// partitioned run (see parallel.go). Both stay zero/nil for an
	// ordinary sequential kernel.
	lp   int32
	part *Partition

	// curRec is the execution record of the event being fired,
	// maintained by runWindow: events scheduled during the firing are
	// stamped with it (push), and shard buffers (trace, probe) tag
	// entries with it via EventStamp. Sequential Run skips the
	// bookkeeping: nothing folds a single kernel's buffers.
	curRec *evRecord
	// execIdx counts fired events, giving records their provisional
	// within-window local order; emitSeq counts EventStamp emissions so
	// same-event trace/probe entries keep their emission order through
	// the merge.
	execIdx int64
	emitSeq int64
	// windowRecs lists the records of events fired in the current
	// window, in execution order — one sorted stream of the barrier
	// merge that assigns global sequence numbers (Partition.assignGseq).
	windowRecs []*evRecord
	// recSlab batch-allocates evRecords so the per-event record costs an
	// allocation only every len(slab) events.
	recSlab []evRecord

	// explain describes the open protocol state a deadlock leaves
	// behind (Explain); nil when no model layer set it.
	explain func() error

	// reqs pools the server requests of every Server on this kernel
	// (one pool per LP). A busy server turns over one request per
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
	e.schedAt = k.now
	e.seq = k.seq
	if k.part != nil {
		e.crec = k.creator()
	}
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

// creator returns the record the event being scheduled should carry: the
// record of the currently firing event, or — during model construction,
// before Run — a fresh setup record whose ord precedes every execution
// ord.
func (k *Kernel) creator() *evRecord {
	if k.curRec != nil {
		return k.curRec
	}
	return k.part.setupStamp()
}

// newRecord slab-allocates the execution record for one fired event.
func (k *Kernel) newRecord() *evRecord {
	if len(k.recSlab) == 0 {
		k.recSlab = make([]evRecord, 512)
	}
	rec := &k.recSlab[0]
	k.recSlab = k.recSlab[1:]
	return rec
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

// peek returns the timestamp of the earliest pending event.
func (k *Kernel) peek() (Time, bool) {
	switch {
	case k.stopped:
		return 0, false
	case k.lane.n > 0:
		return k.now, true
	case len(k.events) > 0:
		return k.events[0].at, true
	}
	return 0, false
}

// dueBefore reports whether an event is pending before horizon. It
// ignores Stop: a worker asks it of an LP before claiming the LP's
// window, when another LP's event may be stopping the partition.
func (k *Kernel) dueBefore(horizon Time) bool {
	if k.lane.n > 0 {
		return k.now < horizon
	}
	return len(k.events) > 0 && k.events[0].at < horizon
}

// runWindow fires events in key order until the queue is empty or the
// earliest event lies at or beyond horizon. It is the per-LP inner loop
// of the partitioned executor: the Partition guarantees that no other
// LP can schedule an event for this kernel before horizon, so the
// window is safe to run without synchronisation. Every fired event gets
// an execution record (provisionally ordered by the local execution
// index) that the barrier merge promotes to the global sequential
// order; events and shard-buffer entries created during the firing are
// stamped with it.
func (k *Kernel) runWindow(horizon Time) {
	for !k.stopped && k.dueBefore(horizon) {
		e := k.next()
		k.now = e.at
		rec := k.newRecord()
		rec.at = e.at
		rec.schedAt = e.schedAt
		rec.seq = e.seq
		rec.crec = e.crec
		k.execIdx++
		rec.ord = k.execIdx
		k.curRec = rec
		k.windowRecs = append(k.windowRecs, rec)
		e.act.fire()
	}
}

// Stamp marks one emission point (a trace span, a probe event) inside a
// partitioned run with the firing event's execution record and a
// per-kernel emission counter. After the run completes — when every
// record's ord holds its global sequence number — stamps from all LP
// shards compare into exactly the sequential emission order.
type Stamp struct {
	rec  *evRecord
	emit int64
}

// Before reports whether s's emission precedes t's in the reconstructed
// sequential order. Only valid once the partitioned run has finished
// (all ords are then global).
func (s Stamp) Before(t Stamp) bool {
	if s.rec != t.rec {
		return s.rec.ord < t.rec.ord
	}
	return s.emit < t.emit
}

// EventStamp returns a fresh emission stamp tied to the event currently
// being fired. Only meaningful inside a partitioned run (runWindow
// maintains the record).
func (k *Kernel) EventStamp() Stamp {
	k.emitSeq++
	return Stamp{rec: k.curRec, emit: k.emitSeq}
}

// ScheduleRemote schedules fn to run at absolute virtual time t on the
// kernel of logical process dst. On a sequential kernel (or when dst is
// the caller's own LP) this is just At. Across LPs the event is
// buffered in the partition's mailbox and enters dst's queue at the
// next window barrier, carrying the sender's full ordering key so the
// merged order is identical to a sequential run. t must respect the
// partition's lookahead: scheduling below the current window horizon is
// a causality violation and panics.
func (k *Kernel) ScheduleRemote(dst int, t Time, fn func()) {
	p := k.part
	if p == nil || int32(dst) == k.lp {
		k.At(t, fn)
		return
	}
	if t < k.now {
		t = k.now
	}
	if t < p.horizon {
		panic(fmt.Sprintf("sim: lookahead violation — LP %d scheduled an event on LP %d at t=%v inside window horizon %v", k.lp, dst, t, p.horizon))
	}
	k.seq++
	p.mail[k.lp] = append(p.mail[k.lp], remoteEvent{
		dst: int32(dst), at: t, schedAt: k.now, seq: k.seq, crec: k.creator(), fn: fn,
	})
}
