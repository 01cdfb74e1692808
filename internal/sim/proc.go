//go:build go1.23

package sim

import "iter"

// Proc is a simulated sequential process (an MPI rank, an OS helper
// thread). Its body is an iter.Pull coroutine that dispatch resumes and
// block suspends by a direct runtime switch, so exactly one of kernel
// and process runs at a time and process code needs no locking. A panic
// in the body re-raises from Kernel.Run with its original value. A
// process left suspended by Stop or a deadlock is never stopped: stop
// would resume the body outside kernel control.
type Proc struct {
	k     *Kernel
	name  string
	next  func() (struct{}, bool) // resume the body until it blocks or returns
	yield func(struct{}) bool     // suspend the body back to its dispatcher
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (k *Kernel) SpawnAt(d Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.nprocs++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		k.nprocs--
	})
	k.afterDispatch(d, p)
	return p
}

// dispatch hands the CPU to p and returns when p blocks or exits. It
// must be called from kernel (event-callback) context only.
func (k *Kernel) dispatch(p *Proc) { p.next() }

// Kernel returns the kernel that owns p.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// block parks the calling process until another entity calls
// k.dispatch(p) again (via a scheduled event).
func (p *Proc) block() { p.yield(struct{}{}) }

// Sleep advances the process by d of virtual time (e.g. a compute phase
// or memory-copy cost). A non-positive d still yields so that other
// same-time events interleave fairly.
func (p *Proc) Sleep(d Time) {
	p.k.afterDispatch(d, p)
	p.block()
}

// Yield relinquishes the CPU until all events already scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }
