package sim

import "unsafe"

// slabBytes is the byte budget of one pool slab. A pool refills by
// allocating one slab — as many objects as fit in it — so an object
// costs a share of one allocation, not one of its own. Slabs stay
// small: a pool that serves a handful of objects still pays for a whole
// slab, and a slab past 32 KiB is rounded up to whole pages. A 4 KiB
// slab is an exact size class.
const slabBytes = 4 << 10

// Pool is a free list of *T for objects that the simulation turns over
// at a high rate: server requests, transfers, protocol messages, stripe
// chunks. It is refilled one slab at a time, and bind runs on each
// object once, when its slab is made, so an object's sim.Events are
// bound for its whole life. The list is intrusive: link returns the
// object's own free-list pointer field, so a free object costs no
// memory beyond itself. A pool is touched by one LP only and takes no
// lock. It clears nothing: each type resets its object before it puts
// it back, and that reset is what marks the object released (a pooled
// type checks the mark wherever a handle may be used).
type Pool[T any] struct {
	free *T
	live int
	link func(*T) **T
	bind func(*T)
}

// NewPool returns an empty pool over link, which returns an object's
// free-list field, and bind, which is run once on every new object (nil
// when there is nothing to bind).
func NewPool[T any](link func(*T) **T, bind func(*T)) Pool[T] {
	return Pool[T]{link: link, bind: bind}
}

// Get takes an object from the pool, refilling it with a new slab when
// it is empty. The object is as its type's reset left it (zero, apart
// from what bind set, when new) and its link is nil.
func (p *Pool[T]) Get() *T {
	if p.free == nil {
		p.refill()
	}
	obj := p.free
	next := p.link(obj)
	p.free, *next = *next, nil
	p.live++
	return obj
}

// Put returns obj to the pool; the next Get returns it. obj may have
// been taken from another pool of the same type: only the sum of the
// pools' Live counts then means anything. Under the poolquarantine
// build tag Put only counts obj back and never recycles it.
func (p *Pool[T]) Put(obj *T) {
	p.live--
	if quarantine {
		return
	}
	*p.link(obj) = p.free
	p.free = obj
}

// Live returns the number of objects taken from the pool minus those
// put back into it.
func (p *Pool[T]) Live() int { return p.live }

// refill makes one slab and pushes its objects so that Get hands them
// out in address order.
func (p *Pool[T]) refill() {
	slab := make([]T, slabLen[T]())
	for i := len(slab) - 1; i >= 0; i-- {
		obj := &slab[i]
		if p.bind != nil {
			p.bind(obj)
		}
		*p.link(obj) = p.free
		p.free = obj
	}
}

// slabLen returns the number of T that fit in one slab, at least one.
func slabLen[T any]() int {
	var zero T
	return max(1, slabBytes/int(unsafe.Sizeof(zero)))
}
