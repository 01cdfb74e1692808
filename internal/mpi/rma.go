package mpi

import (
	"fmt"
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
type Window struct {
	w     *World
	id    int
	sizes []int64
	data  [][]byte // per-rank backing store, nil in symbolic mode

	puts         [][]putEntry      // per-origin ledger of the epoch's puts, in put order
	locks        []windowLockState // per-target passive lock state
	flowKeys     []byte            // per-origin flow identities for put streams
	heldLocks    [][]int           // per-origin locked targets
	postOrigins  [][]int           // per-target PSCW exposure group
	startTargets [][]int           // per-origin PSCW access group
	ctlSends     [][]*Request      // per-rank in-flight PSCW control sends

	allocBarrier int // ranks still to arrive at creation barrier
}

// putEntry is one put in an origin's ledger: its target and the future
// that completes it remotely. An epoch close waits the entries it
// covers in put order — all of them (WinFence), or one target's
// (WinUnlock, WinComplete).
type putEntry struct {
	target int
	done   *sim.Future
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
			w:            w,
			id:           idx,
			sizes:        make([]int64, w.cfg.NProcs),
			data:         make([][]byte, w.cfg.NProcs),
			puts:         make([][]putEntry, w.cfg.NProcs),
			locks:        make([]windowLockState, w.cfg.NProcs),
			flowKeys:     make([]byte, w.cfg.NProcs),
			heldLocks:    make([][]int, w.cfg.NProcs),
			postOrigins:  make([][]int, w.cfg.NProcs),
			startTargets: make([][]int, w.cfg.NProcs),
			ctlSends:     make([][]*Request, w.cfg.NProcs),
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
// the network. Completion is observed through WinFence or WinUnlock.
func (r *Rank) Put(win *Window, target int, offset int64, pl Payload) {
	if pl.Size+offset > win.sizes[target] {
		panic(fmt.Sprintf("mpi: Put beyond window: off=%d size=%d winsize=%d target=%d",
			offset, pl.Size, win.sizes[target], target))
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
	// synchronisation. Either way the epoch keeps done past this
	// event, so it is a future of its own: the transfer's delivery
	// (fence) or the agent's bounce-copy completion (lock).
	locked := slices.Contains(win.heldLocks[r.id], target)
	done := r.w.k.NewFuture()
	delivered := done
	if locked {
		delivered = nil
	}
	// All puts of one origin on one window form one flow: per-QP
	// ordering without starving concurrent streams.
	tr := r.w.net.SendFlowTo(delivered, &win.flowKeys[r.id], r.node, tgt.node, pl.Size)
	if pl.Data != nil && win.data[target] != nil {
		dst := win.data[target][offset : offset+pl.Size]
		src := pl.Data
		tr.Delivered.OnDone(func() { copy(dst, src) })
	}
	if locked {
		m := r.newMsg(msgPut, tgt)
		m.pl, m.fut = pl, done
		tr.Delivered.Then(&m.onArrive)
	}
	win.puts[r.id] = append(win.puts[r.id], putEntry{target, done})
}

// closePuts waits r's puts to target (every target if target < 0) in
// put order, then drops them from the ledger.
func (win *Window) closePuts(r *Rank, target int) {
	covered := func(pe putEntry) bool { return target < 0 || pe.target == target }
	for _, pe := range win.puts[r.id] {
		if covered(pe) {
			r.p.Wait(pe.done)
		}
	}
	win.puts[r.id] = slices.DeleteFunc(win.puts[r.id], covered)
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
	r.Barrier()
}

// agent returns the rank's passive-target RMA agent: a FIFO server
// that processes lock/unlock control messages. It runs asynchronously
// to the rank's process (the target need not be inside MPI), but
// requests from concurrent origins serialise — the behaviour that makes
// the lock variant scale poorly with many origins per aggregator.
func (r *Rank) agent() *sim.Server {
	if r.rmaAgent == nil {
		r.rmaAgent = r.w.k.NewServer(fmt.Sprintf("rma-agent%d", r.id), 0, r.w.cfg.RMAAgentDelay)
	}
	return r.rmaAgent
}

// WinLock acquires a passive-target lock on target's window region.
// Shared locks admit concurrent origins; exclusive locks serialise.
func (r *Rank) WinLock(win *Window, typ LockType, target int) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseLock)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	w := r.w
	fut := w.k.NewFuture()
	m := r.newMsg(msgLock, w.ranks[target])
	m.win, m.typ, m.fut = win, typ, fut
	tr := w.net.Send(r.node, w.ranks[target].node, w.cfg.CtrlBytes)
	tr.Delivered.Then(&m.onArrive)
	r.p.Wait(fut) // completes when the grant reply arrives at the origin
	win.heldLocks[r.id] = append(win.heldLocks[r.id], target)
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
		reply.Delivered.Then(m.fut)
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
	reply.Delivered.Then(fut)
}

// WinUnlock releases the lock on target after forcing remote completion
// of all puts this origin issued to that target inside the epoch
// (MPI_Win_unlock semantics: on return, transfers are complete at the
// target).
func (r *Rank) WinUnlock(win *Window, target int) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseUnlock)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	win.heldLocks[r.id] = slices.DeleteFunc(win.heldLocks[r.id], func(t int) bool { return t == target })
	w := r.w
	win.closePuts(r, target)
	// Unlock control message; the agent releases and serves the queue.
	ack := w.k.NewFuture()
	m := r.newMsg(msgUnlock, w.ranks[target])
	m.win, m.fut = win, ack
	tr := w.net.Send(r.node, w.ranks[target].node, w.cfg.CtrlBytes)
	tr.Delivered.Then(&m.onArrive)
	r.p.Wait(ack)
}

// release runs at the target agent when an unlock arrives. It assumes
// well-formed lock/unlock pairing (our collective engine guarantees it).
func (win *Window) release(origin, target int) {
	st := &win.locks[target]
	if st.exclusive {
		st.exclusive = false
	} else if st.shared > 0 {
		st.shared--
	} else {
		panic("mpi: WinUnlock without a held lock")
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
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CausePost)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	for _, o := range origins {
		// The notification request is tracked in the window and drained
		// at WinWait, by which point every origin has acted on it — the
		// drain observes completion without adding synchronisation.
		req := r.Isend(o, pscwTag(win.id), Symbolic(r.w.cfg.CtrlBytes))
		win.ctlSends[r.id] = append(win.ctlSends[r.id], req)
	}
	win.postOrigins[r.id] = append([]int(nil), origins...)
}

// WinStart opens an access epoch to the target group (MPI_Win_start):
// it blocks until every target's post notification has arrived.
func (r *Rank) WinStart(win *Window, targets []int) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseStart)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	reqs := make([]*Request, 0, len(targets))
	for _, t := range targets {
		reqs = append(reqs, r.Irecv(t, pscwTag(win.id), r.w.cfg.CtrlBytes, nil))
	}
	r.Wait(reqs...)
	win.startTargets[r.id] = append([]int(nil), targets...)
}

// WinComplete closes the access epoch (MPI_Win_complete): it forces
// remote completion of the epoch's puts and notifies each target.
func (r *Rank) WinComplete(win *Window) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseComplete)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	targets := win.startTargets[r.id]
	win.startTargets[r.id] = nil
	notify := make([]*Request, 0, len(targets))
	for _, t := range targets {
		win.closePuts(r, t)
		notify = append(notify, r.Isend(t, pscwTag(win.id)+1, Symbolic(r.w.cfg.CtrlBytes)))
	}
	// Local completion of the epoch-close notifications before the call
	// returns: the implementation cannot recycle its internal request
	// slots (nor, here, drop the futures) while the sends are in flight.
	r.Wait(notify...)
}

// WinWait closes the exposure epoch (MPI_Win_wait): it blocks until
// every origin of the posted group has completed.
func (r *Rank) WinWait(win *Window) {
	e := r.eng
	e.enter()
	defer e.exit()
	defer r.span(probe.KindRMA, probe.CauseWaitEpoch)()
	r.p.Sleep(r.w.cfg.CallOverhead)
	origins := win.postOrigins[r.id]
	win.postOrigins[r.id] = nil
	reqs := make([]*Request, 0, len(origins))
	for _, o := range origins {
		reqs = append(reqs, r.Irecv(o, pscwTag(win.id)+1, r.w.cfg.CtrlBytes, nil))
	}
	r.Wait(reqs...)
	// Drain the post-notification sends tracked by WinPost. Every origin
	// of the epoch has already received them (their completion messages
	// just arrived above), so this observes guaranteed-complete requests
	// and costs no additional synchronisation.
	ctl := win.ctlSends[r.id]
	win.ctlSends[r.id] = nil
	r.Wait(ctl...)
}
