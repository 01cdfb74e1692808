// Package sim is a minimal stub of collio/internal/sim for analyzer
// fixtures. The analyzers recognize simulator entities by package NAME
// and method name, so these empty-bodied shapes are all that is needed
// to exercise every code path without importing the real kernel.
package sim

import "math/rand"

// Time is virtual time in nanoseconds.
type Time int64

// Future mirrors the kernel's completion handle.
type Future struct{ done bool }

func (f *Future) Done() bool    { return f.done }
func (f *Future) Complete()     { f.done = true }
func (f *Future) Then(a Action) { _ = a }

// Action mirrors what an event does when it fires: a *Future, a Func
// or an Event.
type Action interface{}

// Func mirrors the adapter from a plain callback to an Action.
type Func func()

// Event mirrors an Action bound to a method of a pooled object.
type Event[T any] struct {
	obj *T
	fn  func(*T)
}

// NewEvent mirrors binding fn (a method expression) to obj.
func NewEvent[T any](obj *T, fn func(*T)) Event[T] { return Event[T]{obj: obj, fn: fn} }

// Proc mirrors a simulated process.
type Proc struct{}

func (p *Proc) Wait(f *Future)        {}
func (p *Proc) WaitAll(fs ...*Future) {}
func (p *Proc) Sleep(d Time)          {}
func (p *Proc) Yield()                {}

// Kernel mirrors the DES scheduler surface used by the analyzers.
type Kernel struct{}

func (k *Kernel) Rand() *rand.Rand                          { return nil }
func (k *Kernel) Now() Time                                 { return 0 }
func (k *Kernel) ScheduleRemote(dst int, t Time, fn func()) { _ = fn }
func (k *Kernel) After(d Time, fn func())                   { _ = fn }
func (k *Kernel) At(t Time, fn func())                      { _ = fn }
func (k *Kernel) CompleteAfter(d Time, f *Future)           { _ = f }
func (k *Kernel) AfterAction(d Time, a Action)              { _ = a }
func (k *Kernel) InitFuture(f *Future)                      { *f = Future{} }
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc { return &Proc{} }
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	return &Proc{}
}

// Partition mirrors the conservative parallel executor's handle: the
// sanctioned owner of per-LP kernels whose Run method transfers kernel
// ownership to pool workers at window barriers.
type Partition struct{ kernels []*Kernel }

func (p *Partition) Kernel(lp int) *Kernel { return p.kernels[lp] }
func (p *Partition) Run(workers int) Time  { return 0 }
func (p *Partition) Stop()                 {}

// NewPartition mirrors the conservative executor's constructor; the
// third argument is the lookahead window width.
func NewPartition(rootSeed int64, nlps int, lookahead Time) *Partition {
	return &Partition{kernels: make([]*Kernel, nlps)}
}
