//go:build go1.23

package sim

import (
	"iter"
	"strconv"
)

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
	id    int
	next  func() (struct{}, bool) // resume the body until it blocks or returns
	yield func(struct{}) bool     // suspend the body back to its dispatcher
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. name and id label the process in diagnostics
// ("rank", 7 reads rank7); the label is formatted only when one is
// printed, so a spawn costs no string.
func (k *Kernel) Spawn(name string, id int, fn func(p *Proc)) *Proc {
	return k.SpawnAt(0, name, id, fn)
}

// SpawnAt is Spawn with a start delay.
func (k *Kernel) SpawnAt(d Time, name string, id int, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, id: id}
	k.nprocs++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		k.nprocs--
	})
	k.AfterAction(d, p)
	return p
}

// fire is p's wakeup event: it hands the CPU to p and returns when p
// blocks or exits. Events fire in kernel context only.
func (p *Proc) fire() {
	p.k.running = p
	p.next()
	p.k.running = nil
}

// Kernel returns the kernel that owns p.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process label (for diagnostics): its name followed
// by its id.
func (p *Proc) Name() string { return p.name + strconv.Itoa(p.id) }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// block parks the calling process until its wakeup event fires. Only
// p's own body may: a call from kernel-callback context (a step
// registered with Then, an observer hook) has no coroutine of p's to suspend.
func (p *Proc) block() {
	if p.k.running != p {
		panic("sim: process " + p.Name() + " blocked from kernel-callback context; only its own body may block it")
	}
	p.yield(struct{}{})
}

// Sleep advances the process by d of virtual time (e.g. a compute phase
// or memory-copy cost). A non-positive d still yields so that other
// same-time events interleave fairly.
func (p *Proc) Sleep(d Time) {
	p.k.AfterAction(d, p)
	p.block()
}

// Yield relinquishes the CPU until all events already scheduled for the
// current instant have run.
func (p *Proc) Yield() { p.Sleep(0) }
