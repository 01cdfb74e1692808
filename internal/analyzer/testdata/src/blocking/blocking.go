// Fixtures for the blockingoutsiderank analyzer: blocking MPI/process
// calls are forbidden inside kernel event callbacks (OnDone/After/At,
// and the methods sim.NewEvent binds), which run inline in the kernel
// goroutine with no process to park.
package blocking

import (
	"mpi"
	"sim"
)

func badDirect(f *sim.Future, r *mpi.Rank) {
	f.OnDone(func() {
		r.Barrier() // want `blocking call mpi.Barrier inside a kernel event callback`
	})
}

func badAfter(k *sim.Kernel, r *mpi.Rank, q *mpi.Request) {
	k.After(10, func() {
		r.Wait(q) // want `blocking call mpi.Wait inside a kernel event callback`
	})
}

func badAt(k *sim.Kernel, p *sim.Proc) {
	k.At(100, func() {
		p.Sleep(5) // want `blocking call sim.Sleep inside a kernel event callback`
	})
}

func badLeaderLadder(f *sim.Future, r *mpi.Rank, leaders []int) {
	f.OnDone(func() {
		r.AlltoallSyncAmong(leaders, 8) // want `blocking call mpi.AlltoallSyncAmong inside a kernel event callback`
	})
}

func badSetupCollectives(k *sim.Kernel, r *mpi.Rank, sizes []int64) {
	k.After(10, func() {
		r.AllreduceSync(16)     // want `blocking call mpi.AllreduceSync inside a kernel event callback`
		r.AllgathervSync(sizes) // want `blocking call mpi.AllgathervSync inside a kernel event callback`
	})
}

func helperBlocks(r *mpi.Rank) {
	r.Barrier()
}

func badTransitive(f *sim.Future, r *mpi.Rank) {
	f.OnDone(func() {
		helperBlocks(r) // want `helperBlocks, reached from a kernel event callback, calls blocking mpi.Barrier`
	})
}

func badBoundMethod(f *sim.Future, p *sim.Proc) {
	f.OnDone(p.Yield) // want `blocking call sim.Yield registered as a kernel event callback`
}

// stepper is a pooled object whose steps are sim.Events.
type stepper struct {
	r    *mpi.Rank
	step sim.Event[stepper]
	done sim.Event[stepper]
}

func (s *stepper) syncStep() { s.r.Barrier() }

func (s *stepper) finish() {}

func badEventMethod(s *stepper) {
	s.step = sim.NewEvent(s, (*stepper).syncStep) // want `syncStep, reached from a kernel event callback, calls blocking mpi.Barrier`
}

// --- near misses: non-blocking callbacks and fresh-process bodies stay silent ---

func goodEventMethod(s *stepper, f *sim.Future) {
	s.done = sim.NewEvent(s, (*stepper).finish)
	f.Then(&s.done)
}

func goodComplete(f, g *sim.Future) {
	f.OnDone(g.Complete) // Complete never parks a process
}

func goodNestedRegistration(f *sim.Future, k *sim.Kernel) {
	f.OnDone(func() {
		k.After(5, func() {}) // registering more events is fine
	})
}

func goodSpawnFromCallback(f *sim.Future, k *sim.Kernel, r *mpi.Rank) {
	f.OnDone(func() {
		k.Spawn("worker", func(p *sim.Proc) {
			r.Barrier() // fresh process: blocking is legitimate here
		})
	})
}

func goodProcessContext(r *mpi.Rank, q *mpi.Request) {
	r.Wait(q) // plain rank-body code, not event context
}

func helperDoesNotBlock(f *sim.Future) bool {
	return f.Done()
}

func goodTransitiveNonBlocking(f, g *sim.Future) {
	f.OnDone(func() {
		_ = helperDoesNotBlock(g)
	})
}
