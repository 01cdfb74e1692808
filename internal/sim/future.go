package sim

// Future is a one-shot completion that processes can wait on. It is the
// simulation analogue of an MPI_Request / aio control block: an operation
// is initiated, a Future is returned, and completion is signalled later
// from kernel context (a network delivery, a storage target finishing)
// or from another process. DoneAt records when the operation actually
// finished, even if its waiter looks much later.
//
// A future armed by InitJoin is also a join: it counts its inputs down
// and completes on the last.
//
// Two callbacks and the first waiter are stored inline: nearly every
// future in the protocol stack has one waiter and at most two callbacks
// (an intra-node transfer's Injected and Delivered are one future, so
// its local-completion forward and its arrival callback share it).
// Growing a slice from nil for them was the largest allocation source
// in end-to-end profiles. The overflow slice holds both kinds, told
// apart by type: waiters are *Proc, callbacks never are. Completion
// schedules every callback in registration order, then every waiter in
// registration order. The layout keeps Future at 88 bytes, inside the
// 96-byte allocation class.
type Future struct {
	k       *Kernel
	done    bool
	pending int32 // inputs an armed join still waits for
	doneAt  Time
	waiter0 *Proc
	onDone0 Action
	onDone1 Action
	more    []Action
}

// InitFuture resets f to an incomplete future bound to k. A future is
// embedded by value in the object that owns the operation, and lives
// as long as that object rather than as a separate allocation.
func (k *Kernel) InitFuture(f *Future) { *f = Future{k: k} }

// InitJoin resets f to an incomplete future bound to k that completes
// once every non-nil future in fs has completed: it is registered on
// each input still pending and counts them down. If none is pending it
// completes one zero-delay hop later, so completion still comes from
// kernel context. A join is re-armed in place once it has completed.
func (k *Kernel) InitJoin(f *Future, fs ...*Future) {
	*f = Future{k: k}
	for _, in := range fs {
		if in != nil && !in.done {
			f.pending++
		}
	}
	if f.pending == 0 {
		k.CompleteAfter(0, f)
		return
	}
	for _, in := range fs {
		if in != nil && !in.done {
			in.register(f)
		}
	}
}

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// DoneAt returns the virtual time at which the future completed. It is
// only meaningful once Done() is true.
func (f *Future) DoneAt() Time { return f.doneAt }

// Complete marks the future done at the current virtual time and
// schedules all callbacks and waiters to run. Completing an
// already-complete future panics — it indicates a protocol bug in the
// caller.
func (f *Future) Complete() {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.doneAt = f.k.now
	// Waiters and callbacks are resumed via zero-delay events rather than
	// inline, so that a process completing a future while running never
	// results in two simultaneously-running processes.
	k := f.k
	if f.onDone0 != nil {
		k.AfterAction(0, f.onDone0)
		f.onDone0 = nil
	}
	if f.onDone1 != nil {
		k.AfterAction(0, f.onDone1)
		f.onDone1 = nil
	}
	for _, a := range f.more {
		if _, waiter := a.(*Proc); !waiter {
			k.AfterAction(0, a)
		}
	}
	if f.waiter0 != nil {
		k.AfterAction(0, f.waiter0)
		f.waiter0 = nil
	}
	for _, a := range f.more {
		if p, waiter := a.(*Proc); waiter {
			k.AfterAction(0, p)
		}
	}
	f.more = nil
}

// fire is the event behind Then and CompleteAfter: it completes f, or
// counts an armed join down and completes it on its last input.
func (f *Future) fire() {
	if f.pending > 0 {
		if f.pending--; f.pending > 0 {
			return
		}
	}
	f.Complete()
}

// Then fires a (in kernel context) when f completes: a *Future
// completes (or an armed join counts down), an Event calls its method,
// a Func is called. If f is already complete, a is scheduled at once.
// Every step of an event chain is an Event bound once by its owner, so
// registering one allocates nothing.
func (f *Future) Then(a Action) { f.register(a) }

func (f *Future) register(a Action) {
	switch {
	case f.done:
		f.k.AfterAction(0, a)
	case f.onDone0 == nil:
		f.onDone0 = a
	case f.onDone1 == nil:
		f.onDone1 = a
	default:
		f.more = append(f.more, a)
	}
}

// Wait blocks the calling process until the future completes.
func (p *Proc) Wait(f *Future) {
	if f.done {
		return
	}
	if f.waiter0 == nil {
		f.waiter0 = p
	} else {
		f.more = append(f.more, p)
	}
	p.block()
}

// WaitAll blocks until every non-nil future in fs has completed.
func (p *Proc) WaitAll(fs ...*Future) {
	for _, f := range fs {
		if f != nil {
			p.Wait(f)
		}
	}
}
