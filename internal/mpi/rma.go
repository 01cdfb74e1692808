package mpi

import (
	"fmt"
	"hash/crc32"
	"slices"

	"collio/internal/probe"
	"collio/internal/sim"
)

// LockType selects the passive-target lock mode.
type LockType int

const (
	// LockShared allows concurrent origins (MPI_LOCK_SHARED). The
	// reproduced paper uses shared locks in the shuffle phase because
	// distinct origins never overwrite each other's bytes.
	LockShared LockType = iota
	// LockExclusive serialises origins (MPI_LOCK_EXCLUSIVE).
	LockExclusive
)

// Window is a one-sided communication window (MPI_Win). Each rank
// exposes Size(rank) bytes; in the collective-write engine aggregators
// expose one sub-buffer and non-aggregators expose zero bytes.
//
// The window owns every rank's epoch state and checks the epoch rules
// on each call: a Put must be covered by the origin's fence epoch, a
// lock it holds on the target or its start group, and a closing call
// without its opener (WinUnlock, WinComplete, WinWait), a second
// WinLock on a held target or a second WinStart/WinPost on an open
// group panics at the caller, naming rank, target and window.
// World.OpenEpochs reports what a finished run left open.
type Window struct {
	w     *World
	id    int
	sizes []int64
	data  [][]byte // per-rank backing store, nil in symbolic mode

	origins []originState     // per-rank epoch state
	locks   []windowLockState // per-target passive lock state
}

// originState is one rank's epoch state on a window: the epochs it has
// open as an origin and the put ledger they close, and (PSCW) the
// exposure group it posted to as a target. The group slices are copies
// that keep their backing arrays from epoch to epoch; startOpen and
// postOpen say whether their epochs are open.
type originState struct {
	fenced    bool       // a WinFence has opened the fence epoch
	held      []int      // targets this rank holds a passive lock on
	startOpen bool       // WinStart to WinComplete
	postOpen  bool       // WinPost to WinWait
	start     []int      // access group
	post      []int      // exposure group
	ctlSends  []*Request // in-flight post notifications, drained at WinWait
	reqs      []*Request // WinStart/WinComplete/WinWait request scratch
	puts      []*putDone // the open epochs' puts, in put order
	flow      byte       // its address is the flow key of the rank's put stream
}

// waitAll waits the requests in *reqs and empties the slice, keeping
// its backing array for the next epoch.
func waitAll(r *Rank, reqs *[]*Request) {
	r.Wait(*reqs...)
	clear(*reqs)
	*reqs = (*reqs)[:0]
}

// putDone is one put's completion, pooled per LP: the future an epoch
// close waits, the target it counts against and, in data mode, the copy
// into the target's window that its delivery performs (onCopy). It has
// one holder per pending use — the ledger, and a copy not yet run — and
// returns to the origin's LP pool when the last one lets go. That is
// closePuts, unless the copy is still queued: a zero-delay event, it
// can trail the origin's wakeup when an earlier put's delivery wakes
// the origin in the same instant, and then the copy releases it.
//
// A Put does not copy its source: the copy reads it at delivery, so
// the source must stay unchanged until then (MPI asks until the
// epoch's close). crc is the source's CRC-32 when it was posted, and
// the copy panics if the bytes it lands differ. A released put knows
// it: the release clears sh.
type putDone struct {
	fut      sim.Future
	target   int
	holds    int32
	crc      uint32
	sh       *lpShard
	dst, src []byte
	onCopy   sim.Event[putDone]
	next     *putDone // pool link, nil while the put is live
}

// newPut takes a put completion for target, its copy event bound, from
// the rank's LP pool.
func (r *Rank) newPut(target int) *putDone {
	sh := r.sh
	p := sh.puts.Get()
	r.k.InitFuture(&p.fut)
	p.target, p.holds, p.sh = target, 1, sh
	return p
}

// copy lands a data-mode put's bytes in the target window at delivery.
func (p *putDone) copy() {
	p.check("copy")
	if crc32.ChecksumIEEE(p.src) != p.crc {
		panic(fmt.Sprintf("mpi: data-mode Put to target %d: its source was written before delivery (a Put's source must stay unchanged until its epoch closes)", p.target))
	}
	copy(p.dst, p.src)
	p.release()
}

// check panics, naming op, when p has been released.
func (p *putDone) check(op string) {
	if p.sh == nil {
		panic("mpi: " + op + " of a released put completion (putDone)")
	}
}

// release drops one holder and returns p to its LP pool after the last.
func (p *putDone) release() {
	p.check("release")
	if p.holds--; p.holds > 0 {
		return
	}
	sh := p.sh
	*p = putDone{onCopy: p.onCopy}
	sh.puts.Put(p)
}

type lockWaiter struct {
	typ    LockType
	origin int
	fut    *sim.Future
}

type windowLockState struct {
	shared    int
	exclusive bool
	queue     []lockWaiter
}

// misuse panics on an epoch rule rank r broke on win.
func (win *Window) misuse(r *Rank, format string, args ...interface{}) {
	panic(fmt.Sprintf("mpi: rank %d, window %d: ", r.id, win.id) + fmt.Sprintf(format, args...))
}

// OpenEpochs reports the first epoch left open, over every window and
// rank: unclosed puts, a held lock, an access or exposure group never
// completed or waited. It is nil when every epoch closed. Read it after
// the run: exp checks it at world end, and the kernel appends it to a
// deadlock panic.
func (w *World) OpenEpochs() error {
	for _, win := range w.windows {
		for i := range win.origins {
			o := &win.origins[i]
			var open string
			switch {
			case len(o.puts) > 0:
				open = fmt.Sprintf("%d puts (first to target %d) not closed by WinFence, WinUnlock or WinComplete", len(o.puts), o.puts[0].target)
			case len(o.held) > 0:
				open = fmt.Sprintf("lock on target %d held (no WinUnlock)", o.held[0])
			case o.startOpen:
				open = fmt.Sprintf("access epoch to %v open (no WinComplete)", o.start)
			case o.postOpen:
				open = fmt.Sprintf("exposure epoch to %v open (no WinWait)", o.post)
			default:
				continue
			}
			return fmt.Errorf("mpi: rank %d, window %d: %s", i, win.id, open)
		}
	}
	return nil
}

// WinAllocate collectively creates a window where this rank exposes size
// bytes. withData allocates real backing memory for this rank's region
// (data mode). Every rank must call WinAllocate the same number of times
// in the same order; the call completes after a barrier, like
// MPI_Win_allocate.
func (r *Rank) WinAllocate(size int64, withData bool) *Window {
	if r.w.net.Partition() != nil {
		// One-sided windows keep world-wide epoch state (locks, exposure
		// counts) mutated from arbitrary ranks; they have no LP-sharded
		// form. The partitioned gate in internal/exp only admits the
		// two-sided primitive, so this is a programming-error guard.
		panic("mpi: one-sided windows are not supported under partitioned execution")
	}
	idx := r.winCalls
	r.winCalls++
	w := r.w
	if idx == len(w.windows) {
		nw := &Window{
			w:       w,
			id:      idx,
			sizes:   make([]int64, w.cfg.NProcs),
			data:    make([][]byte, w.cfg.NProcs),
			origins: make([]originState, w.cfg.NProcs),
			locks:   make([]windowLockState, w.cfg.NProcs),
		}
		w.windows = append(w.windows, nw)
	}
	win := w.windows[idx]
	win.sizes[r.id] = size
	if withData && size > 0 {
		win.data[r.id] = make([]byte, size)
	}
	r.Barrier()
	return win
}

// Data returns rank i's backing store (nil in symbolic mode). The
// collective-write engine reads an aggregator's own region when flushing
// a sub-buffer to the file system.
func (win *Window) Data(i int) []byte { return win.data[i] }

// Put starts a one-sided transfer of pl into target's window region at
// offset. No matching happens at the target and the target CPU is not
// involved; the transfer completes remotely when the data has crossed
// the network. Completion is observed through the epoch's close:
// WinFence, WinUnlock or WinComplete. The put must lie inside one of
// those epochs: the origin's fence epoch, a lock it holds on target, or
// a start group naming target.
func (r *Rank) Put(win *Window, target int, offset int64, pl Payload) {
	if pl.Size+offset > win.sizes[target] {
		panic(fmt.Sprintf("mpi: Put beyond window: off=%d size=%d winsize=%d target=%d",
			offset, pl.Size, win.sizes[target], target))
	}
	o := &win.origins[r.id]
	locked := slices.Contains(o.held, target)
	if !locked && !o.fenced && !(o.startOpen && slices.Contains(o.start, target)) {
		win.misuse(r, "Put to target %d outside any epoch (no fence, no lock on the target, not in the start group)", target)
	}
	e := r.eng
	e.enter()
	defer e.exit()
	r.probeSink().Counters().AddRank(r.id, probe.CtrMPIPutBytes, pl.Size)
	r.p.Sleep(r.w.cfg.PutOverhead)
	tgt := r.w.ranks[target]
	// Passive-target epoch: the put completes at the target through its
	// active-message agent (osc pt2pt-style): per-operation processing
	// serialises at the agent and the payload takes a bounce copy
	// through target memory before it reaches the window. Fence epochs
	// use true RDMA and skip both costs — which is why the paper's lock
	// variant trails the fence variant despite the cheaper
	// synchronisation. Either way the epoch keeps the completion past
	// this event, so it is a pooled object of its own, completed by the
	// transfer's delivery (fence) or the agent's bounce copy (lock).
	p := r.newPut(target)
	delivered := &p.fut
	if locked {
		delivered = nil
	}
	// All puts of one origin on one window form one flow: per-QP
	// ordering without starving concurrent streams.
	tr := r.w.net.SendFlowTo(delivered, &o.flow, r.node, tgt.node, pl.Size)
	if pl.Data != nil && win.data[target] != nil {
		p.dst, p.src = win.data[target][offset:offset+pl.Size], pl.Data
		p.crc = crc32.ChecksumIEEE(pl.Data)
		p.holds++
		tr.Delivered().Then(&p.onCopy)
	}
	if locked {
		m := r.newMsg(msgPut, tgt)
		m.pl, m.fut = pl, &p.fut
		tr.Delivered().Then(&m.onArrive)
	}
	o.puts = append(o.puts, p)
}

// closePuts waits r's puts to target (every target if target < 0) in
// put order, then drops them from the ledger and releases them. The
// ledger stays whole while the waits block, so OpenEpochs reads it
// intact from a deadlock.
func (win *Window) closePuts(r *Rank, target int) {
	o := &win.origins[r.id]
	covered := func(p *putDone) bool { return target < 0 || p.target == target }
	for _, p := range o.puts {
		if covered(p) {
			r.p.Wait(&p.fut)
		}
	}
	o.puts = slices.DeleteFunc(o.puts, func(p *putDone) bool {
		if !covered(p) {
			return false
		}
		p.release()
		return true
	})
}

// WinFence closes the current active-target epoch and opens the next:
// every rank waits for remote completion of its own outstanding puts and
// then synchronises with all other ranks (the expensive part —
// MPI_Win_fence is a collective; cf. §III-B.2a of the paper).
func (r *Rank) WinFence(win *Window) {
	e := r.eng
	e.enter()
	defer e.exit()
	if p := r.probeSink(); p != nil {
		t0 := r.Now()
		defer func() {
			d := r.Now() - t0
			p.Emit(probe.Event{
				At: t0, Dur: d, Layer: probe.LayerMPI, Kind: probe.KindRMA,
				Cause: probe.CauseFence, Rank: r.id, Peer: -1, Cycle: -1,
			})
			p.Counters().AddRank(r.id, probe.CtrMPIFenceNS, int64(d))
		}()
	}
	// Window-wide completion accounting (reduce-scatter of RMA counts,
	// remote flushes) before the synchronisation itself.
	r.p.Sleep(r.w.cfg.CallOverhead + r.w.cfg.FenceCost)
	win.closePuts(r, -1)
	win.origins[r.id].fenced = true
	r.Barrier()
}

// agent returns the rank's passive-target RMA agent: a FIFO server
// that processes lock/unlock control messages. It runs asynchronously
// to the rank's process (the target need not be inside MPI), but
// requests from concurrent origins serialise — the behaviour that makes
// the lock variant scale poorly with many origins per aggregator.
func (r *Rank) agent() *sim.Server { return &r.rmaAgent }

// WinLock acquires a passive-target lock on target's window region.
// Shared locks admit concurrent origins; exclusive locks serialise. A
// rank holds at most one lock per target.
func (r *Rank) WinLock(win *Window, typ LockType, target int) {
	o := &win.origins[r.id]
	if slices.Contains(o.held, target) {
		win.misuse(r, "WinLock on target %d, which it already holds", target)
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseLock)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	w := r.w
	r.k.InitFuture(&r.rmaCtl)
	m := r.newMsg(msgLock, w.ranks[target])
	m.win, m.typ, m.fut = win, typ, &r.rmaCtl
	tr := w.net.Send(r.node, w.ranks[target].node, w.cfg.CtrlBytes)
	tr.Delivered().Then(&m.onArrive)
	r.p.Wait(&r.rmaCtl) // completes when the grant reply arrives at the origin
	o.held = append(o.held, target)
}

// runAgent is the target's RMA agent acting on request m (kernel
// context, on the target rank r), which it consumes.
func (r *Rank) runAgent(m *msg) {
	w := r.w
	switch m.kind {
	case msgLock:
		m.win.lockRequest(m.typ, m.src, r.id, m.fut)
	case msgUnlock:
		m.win.release(m.src, r.id)
		reply := w.net.Send(r.node, w.ranks[m.src].node, w.cfg.CtrlBytes)
		reply.Delivered().Then(m.fut)
	case msgPut:
		// The bounce copy through target memory; m.copied completes
		// the put and releases m.
		w.net.MemcpyTo(&m.onCopied, r.node, m.pl.Size)
		return
	}
	r.eng.releaseMsg(m)
}

// lockRequest runs at the target's RMA agent (kernel context).
func (win *Window) lockRequest(typ LockType, origin, target int, fut *sim.Future) {
	st := &win.locks[target]
	grantable := !st.exclusive && (typ == LockShared || st.shared == 0)
	if !grantable {
		st.queue = append(st.queue, lockWaiter{typ: typ, origin: origin, fut: fut})
		return
	}
	win.grant(typ, origin, target, fut)
}

func (win *Window) grant(typ LockType, origin, target int, fut *sim.Future) {
	st := &win.locks[target]
	if typ == LockShared {
		st.shared++
	} else {
		st.exclusive = true
	}
	w := win.w
	reply := w.net.Send(w.ranks[target].node, w.ranks[origin].node, w.cfg.CtrlBytes)
	reply.Delivered().Then(fut)
}

// WinUnlock releases the lock on target after forcing remote completion
// of all puts this origin issued to that target inside the epoch
// (MPI_Win_unlock semantics: on return, transfers are complete at the
// target).
func (r *Rank) WinUnlock(win *Window, target int) {
	o := &win.origins[r.id]
	i := slices.Index(o.held, target)
	if i < 0 {
		win.misuse(r, "WinUnlock on target %d without a WinLock", target)
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseUnlock)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	o.held = slices.Delete(o.held, i, i+1)
	w := r.w
	win.closePuts(r, target)
	// Unlock control message; the agent releases and serves the queue.
	r.k.InitFuture(&r.rmaCtl)
	m := r.newMsg(msgUnlock, w.ranks[target])
	m.win, m.fut = win, &r.rmaCtl
	tr := w.net.Send(r.node, w.ranks[target].node, w.cfg.CtrlBytes)
	tr.Delivered().Then(&m.onArrive)
	r.p.Wait(&r.rmaCtl)
}

// release runs at the target agent when an unlock arrives; WinUnlock
// has checked at the origin that the lock is held.
func (win *Window) release(origin, target int) {
	st := &win.locks[target]
	if st.exclusive {
		st.exclusive = false
	} else {
		st.shared--
	}
	// Serve queued waiters that are now grantable.
	for len(st.queue) > 0 {
		next := st.queue[0]
		grantable := !st.exclusive && (next.typ == LockShared || st.shared == 0)
		if !grantable {
			break
		}
		st.queue = st.queue[1:]
		win.grant(next.typ, next.origin, target, next.fut)
		if next.typ == LockExclusive {
			break
		}
	}
}

// ---- Generalised active-target synchronisation (PSCW) ----
//
// MPI_Win_post / start / complete / wait: the target exposes its window
// to an explicit origin group and only the communicating pairs
// synchronise — unlike the fence, which is a full collective. The
// collective-write engine offers this as an extension shuffle primitive
// beyond the paper's fence/lock pair.

// pscwTag spaces PSCW control messages per window.
func pscwTag(winID int) int { return tagInternalBase + 2048 + 2*winID }

// WinPost exposes the window to the origin group for one epoch
// (MPI_Win_post, no-block flavour): a control message is sent to every
// origin; the call does not wait for them.
func (r *Rank) WinPost(win *Window, origins []int) {
	o := &win.origins[r.id]
	if o.postOpen {
		win.misuse(r, "WinPost while its exposure epoch to %v is open", o.post)
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CausePost)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	for _, origin := range origins {
		// The notification request is tracked in the window and drained
		// at WinWait, by which point every origin has acted on it — the
		// drain observes completion without adding synchronisation.
		req := r.Isend(origin, pscwTag(win.id), Symbolic(r.w.cfg.CtrlBytes))
		o.ctlSends = append(o.ctlSends, req)
	}
	o.post = append(o.post[:0], origins...)
	o.postOpen = true
}

// WinStart opens an access epoch to the target group (MPI_Win_start):
// it blocks until every target's post notification has arrived.
func (r *Rank) WinStart(win *Window, targets []int) {
	o := &win.origins[r.id]
	if o.startOpen {
		win.misuse(r, "WinStart while its access epoch to %v is open", o.start)
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseStart)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	for _, t := range targets {
		o.reqs = append(o.reqs, r.Irecv(t, pscwTag(win.id), r.w.cfg.CtrlBytes, nil))
	}
	waitAll(r, &o.reqs)
	o.start = append(o.start[:0], targets...)
	o.startOpen = true
}

// WinComplete closes the access epoch (MPI_Win_complete): it forces
// remote completion of the epoch's puts and notifies each target.
func (r *Rank) WinComplete(win *Window) {
	o := &win.origins[r.id]
	if !o.startOpen {
		win.misuse(r, "WinComplete without a WinStart")
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseComplete)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	o.startOpen = false
	for _, t := range o.start {
		win.closePuts(r, t)
		o.reqs = append(o.reqs, r.Isend(t, pscwTag(win.id)+1, Symbolic(r.w.cfg.CtrlBytes)))
	}
	// Local completion of the epoch-close notifications before the call
	// returns: the implementation cannot recycle its internal request
	// slots (nor, here, drop the futures) while the sends are in flight.
	waitAll(r, &o.reqs)
}

// WinWait closes the exposure epoch (MPI_Win_wait): it blocks until
// every origin of the posted group has completed.
func (r *Rank) WinWait(win *Window) {
	o := &win.origins[r.id]
	if !o.postOpen {
		win.misuse(r, "WinWait without a WinPost")
	}
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseWaitEpoch)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	o.postOpen = false
	for _, origin := range o.post {
		o.reqs = append(o.reqs, r.Irecv(origin, pscwTag(win.id)+1, r.w.cfg.CtrlBytes, nil))
	}
	waitAll(r, &o.reqs)
	// Drain the post-notification sends tracked by WinPost. Every origin
	// of the epoch has already received them (their completion messages
	// just arrived above), so this observes guaranteed-complete requests
	// and costs no additional synchronisation.
	waitAll(r, &o.ctlSends)
}
