package sim

// Conservative parallel execution of one simulation.
//
// A Partition splits a run into logical processes (LPs), one Kernel per
// LP, and executes them on a pool of worker goroutines in synchronized
// safe windows [T, T+lookahead). The scheme is classic conservative
// PDES: if every cross-LP interaction carries a delay of at least
// `lookahead` (in this repository, simnet routes all cross-node traffic
// through links with latency >= InterLatency), then no event executed
// inside the current window can schedule work on another LP before the
// window's horizon — so all LPs can run their windows concurrently
// without ever receiving an event "from the past".
//
// Cross-LP scheduling goes through Kernel.ScheduleRemote, which buffers
// the event in a per-sender mailbox. Mailboxes are flushed into the
// destination queues at the window barrier, where the whole partition
// is quiescent; each message carries the sender's full ordering key
// (at, schedAt, creator record, seq), so the destination heap
// interleaves it with local events exactly where a sequential run would
// have. The creator record is the linchpin: every fired event gets an
// execution record, and the barrier merge (assignGseq) folds each
// window's records into the global sequential order, so "which of two
// same-instant events was created first sequentially" is always
// answerable as "whose creator has the smaller global sequence number".
// That — plus per-LP rand streams derived from the root seed and
// stamp-ordered folds of trace/probe shard buffers — is what makes the
// parallel run reproduce the sequential digests bit-for-bit.
//
// Ownership discipline: a kernel (and everything attached to it) is
// owned by at most one goroutine at a time. Workers acquire LPs by
// atomic claim inside a window and release them at the barrier; the
// barrier's happens-before edge transfers ownership, which is why the
// race detector and the kernelshare analyzer both accept the handoff.
// Zero lookahead would make every window empty — callers with any
// zero-latency cross-LP coupling must fall back to sequential
// execution instead of constructing a Partition.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// remoteEvent is one cross-LP message: a callback event destined for
// another LP's queue, carrying the sender's ordering key verbatim.
type remoteEvent struct {
	dst     int32
	at      Time
	schedAt Time
	seq     int64
	crec    *evRecord
	fn      func()
}

// Partition is a set of per-LP kernels executing one simulation under
// the conservative window protocol.
type Partition struct {
	kernels   []*Kernel
	lookahead Time

	// mail holds cross-LP events buffered during the current window,
	// indexed by sender LP so concurrent windows never share a slot.
	// Flushed at the barrier by the coordinating goroutine.
	mail [][]remoteEvent

	// horizon is the exclusive upper bound of the current window. It is
	// written by the coordinator between windows and read by workers
	// (ScheduleRemote's violation check) during them.
	horizon Time

	// setupSeq numbers the records handed to events scheduled outside
	// any event execution (model construction before Run). It starts
	// deep in the negatives so setup ords sort below every execution
	// ord, mirroring the sequential kernel where setup-created events
	// carry the smallest sequence numbers.
	setupSeq int64
	// gseq is the global sequence counter the barrier merge assigns
	// from: after assignGseq, an executed event's record ord is its
	// exact position in the sequential total order.
	gseq int64
	// mergeHeads / mergeCursor are assignGseq's scratch k-way-merge
	// heap and per-LP stream cursors.
	mergeHeads  []mergeHead
	mergeCursor []int

	cursor  int64 // atomic claim index over kernels within a window
	stopped bool
}

// NewPartition creates nlps kernels whose rand streams are derived from
// rootSeed (splitmix-style, so LP streams are decorrelated but fully
// determined by the root seed). lookahead must be positive: it is the
// minimum virtual-time delay of any cross-LP interaction, and a model
// with a zero-delay coupling cannot be partitioned conservatively.
func NewPartition(rootSeed int64, nlps int, lookahead Time) *Partition {
	if nlps < 1 {
		panic("sim: NewPartition needs at least one LP")
	}
	if lookahead <= 0 {
		panic("sim: NewPartition with zero lookahead — fall back to sequential execution")
	}
	p := &Partition{
		kernels:   make([]*Kernel, nlps),
		lookahead: lookahead,
		mail:      make([][]remoteEvent, nlps),
		setupSeq:  -(1 << 62),
	}
	for i := range p.kernels {
		k := NewKernel(rootSeed ^ int64(i+1)*-0x61c8864680b583eb)
		k.lp = int32(i)
		k.part = p
		p.kernels[i] = k
	}
	return p
}

// NKernels returns the number of logical processes.
func (p *Partition) NKernels() int { return len(p.kernels) }

// Kernel returns the kernel owning logical process lp.
func (p *Partition) Kernel(lp int) *Kernel { return p.kernels[lp] }

// Lookahead returns the partition's window width.
func (p *Partition) Lookahead() Time { return p.lookahead }

// Stop aborts the simulation: every kernel stops and Run returns after
// the current window, draining all queues and mailboxes.
func (p *Partition) Stop() {
	p.stopped = true
	for _, k := range p.kernels {
		k.Stop()
	}
}

// minNext returns the earliest pending event time across all LPs.
func (p *Partition) minNext() (Time, bool) {
	var min Time
	ok := false
	for _, k := range p.kernels {
		if t, has := k.peek(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// setupStamp returns a fresh pre-run record for scheduling done outside
// any event execution. Construction is single-threaded, so a plain
// counter assigns setup ords in exactly the sequential creation order.
func (p *Partition) setupStamp() *evRecord {
	rec := &evRecord{ord: p.setupSeq}
	p.setupSeq++
	return rec
}

// flush moves every buffered cross-LP event into its destination
// queue. Runs at the barrier (and once before the first window, for
// events scheduled during model construction), when no LP is active.
// Remote events always go to the heap part: they land at or past the
// horizon, so at > schedAt.
func (p *Partition) flush() {
	for src := range p.mail {
		buf := p.mail[src]
		for i := range buf {
			m := &buf[i]
			dk := p.kernels[m.dst]
			dk.events.push(event{
				at: m.at, schedAt: m.schedAt, seq: m.seq, crec: m.crec,
				act: Func(m.fn),
			})
			*m = remoteEvent{}
		}
		p.mail[src] = buf[:0]
	}
}

// mergeHead is one per-LP cursor of the barrier merge.
type mergeHead struct {
	lp  int32
	rec *evRecord
}

// recBefore orders execution records by the canonical event key
// (at, schedAt, creator ord, seq). Whenever assignGseq compares two
// records, both creators are already final: a creator either executed
// in an earlier window (assigned at that barrier) or earlier on the
// same LP stream (assigned earlier in this very merge, since a record
// only becomes a merge head after everything before it on its stream —
// its creator included — has been popped).
func recBefore(a, b *evRecord) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.crec != b.crec {
		if x, y := a.crec.ord, b.crec.ord; x != y {
			return x < y
		}
	}
	return a.seq < b.seq
}

// assignGseq runs at the window barrier: it k-way-merges the records of
// every event executed during the window (each LP's list is already in
// its sequential-restricted order) and rewrites each record's ord with
// the global sequence number — the event's exact position in the
// sequential total order. Once final, a record's creator link is dead
// (nothing compares through it again), so it is severed to keep record
// ancestry chains from pinning the whole run's history in memory.
func (p *Partition) assignGseq() {
	heads := p.mergeHeads[:0]
	if p.mergeCursor == nil {
		p.mergeCursor = make([]int, len(p.kernels))
	}
	for lp, k := range p.kernels {
		p.mergeCursor[lp] = 1
		if len(k.windowRecs) > 0 {
			heads = append(heads, mergeHead{lp: int32(lp), rec: k.windowRecs[0]})
		}
	}
	siftDown := func(i int) {
		n := len(heads)
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && recBefore(heads[c+1].rec, heads[c].rec) {
				c++
			}
			if !recBefore(heads[c].rec, heads[i].rec) {
				break
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heads) > 0 {
		h := heads[0]
		p.gseq++
		h.rec.ord = p.gseq
		h.rec.crec = nil
		k := p.kernels[h.lp]
		if next := p.mergeCursor[h.lp]; next < len(k.windowRecs) {
			heads[0].rec = k.windowRecs[next]
			p.mergeCursor[h.lp] = next + 1
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(0)
	}
	p.mergeHeads = heads[:0]
	for _, k := range p.kernels {
		recs := k.windowRecs
		for i := range recs {
			recs[i] = nil
		}
		k.windowRecs = recs[:0]
	}
}

// Run executes the partitioned simulation to completion on up to
// `workers` goroutines and returns the final virtual time (the maximum
// across LPs). Each iteration computes the global minimum next-event
// time T, runs every LP's window [T, T+lookahead) concurrently, then
// flushes the cross-LP mailboxes at the barrier. Like Kernel.Run it
// panics if processes remain blocked once no events are left.
func (p *Partition) Run(workers int) Time {
	if workers < 1 {
		workers = 1
	}
	if workers > len(p.kernels) {
		workers = len(p.kernels)
	}
	if workers == 1 {
		p.runWindowed(nil)
	} else {
		pool := newWorkerPool(p, workers)
		p.runWindowed(pool)
		pool.shutdown()
	}
	var end Time
	nprocs := 0
	for _, k := range p.kernels {
		if k.now > end {
			end = k.now
		}
		nprocs += k.nprocs
	}
	if p.stopped {
		for _, k := range p.kernels {
			k.drain()
		}
		for src := range p.mail {
			for i := range p.mail[src] {
				p.mail[src][i] = remoteEvent{}
			}
			p.mail[src] = p.mail[src][:0]
		}
	} else if nprocs > 0 {
		panic(fmt.Sprintf("sim: deadlock — %d process(es) still blocked across %d LPs with no pending events at t=%v", nprocs, len(p.kernels), end))
	}
	// Align every LP's clock with the global end so post-run Now()
	// queries agree regardless of which LP went quiet first.
	for _, k := range p.kernels {
		if k.now < end {
			k.now = end
		}
	}
	return end
}

// runWindowed is the coordinator loop: window selection, dispatch
// (inline when pool is nil, fanned out otherwise) and barrier flush.
func (p *Partition) runWindowed(pool *workerPool) {
	for !p.stopped {
		p.flush()
		T, ok := p.minNext()
		if !ok {
			return
		}
		p.horizon = T + p.lookahead
		if pool == nil {
			for _, k := range p.kernels {
				if k.dueBefore(p.horizon) {
					k.runWindow(p.horizon)
				}
			}
		} else {
			atomic.StoreInt64(&p.cursor, 0)
			pool.runWindow()
		}
		p.assignGseq()
	}
	// Stopped mid-run: leave drain to Run.
	p.flush()
}

// workerPool is a persistent set of goroutines that execute one window
// per release. Workers claim LPs by atomic increment so a handful of
// busy LPs load-balance across the pool, and park between windows on a
// channel receive; the release/arrive pair forms the barrier that
// transfers kernel ownership (the happens-before edge noted above).
type workerPool struct {
	p     *Partition
	start []chan struct{}
	wg    sync.WaitGroup
}

func newWorkerPool(p *Partition, workers int) *workerPool {
	pool := &workerPool{p: p, start: make([]chan struct{}, workers)}
	for w := range pool.start {
		ch := make(chan struct{}, 1)
		pool.start[w] = ch
		go func() {
			for range ch {
				pool.drainClaims()
				pool.wg.Done()
			}
		}()
	}
	return pool
}

// drainClaims runs windows for LPs claimed off the shared cursor until
// none remain.
func (pool *workerPool) drainClaims() {
	p := pool.p
	n := int64(len(p.kernels))
	for {
		i := atomic.AddInt64(&p.cursor, 1) - 1
		if i >= n {
			return
		}
		if k := p.kernels[i]; k.dueBefore(p.horizon) {
			k.runWindow(p.horizon)
		}
	}
}

// runWindow releases all workers for one window and waits for them.
func (pool *workerPool) runWindow() {
	pool.wg.Add(len(pool.start))
	for _, ch := range pool.start {
		ch <- struct{}{}
	}
	pool.wg.Wait()
}

func (pool *workerPool) shutdown() {
	for _, ch := range pool.start {
		close(ch)
	}
}
