package sim

import (
	"testing"
	"unsafe"
)

// poolObj is a pooled test object: binds counts how often bind ran on
// it, and the padding makes a slab hold a handful of objects.
type poolObj struct {
	binds int
	next  *poolObj
	_     [496]byte
}

func newTestPool(binds *int) Pool[poolObj] {
	return NewPool(func(o *poolObj) **poolObj { return &o.next }, func(o *poolObj) {
		o.binds++
		*binds++
	})
}

// TestPoolSlabs checks the pool's refill and accounting: a refill makes
// one slab of slabLen objects and binds each once, objects come out of
// a fresh slab in address order, the live count follows Get and Put,
// and a put object is the next one taken, never bound again.
func TestPoolSlabs(t *testing.T) {
	n := slabLen[poolObj]()
	if n != 8 {
		t.Fatalf("slab holds %d objects of %d bytes, want 8 in %d bytes", n, unsafe.Sizeof(poolObj{}), slabBytes)
	}
	binds := 0
	p := newTestPool(&binds)
	if p.Live() != 0 || binds != 0 {
		t.Fatalf("new pool: %d live, %d binds, want 0 and 0 (slabs are made on demand)", p.Live(), binds)
	}
	var got []*poolObj
	for i := 0; i < n+1; i++ {
		got = append(got, p.Get())
	}
	if binds != 2*n {
		t.Fatalf("%d binds after taking %d objects, want %d (two slabs)", binds, n+1, 2*n)
	}
	if p.Live() != n+1 {
		t.Fatalf("%d live, want %d", p.Live(), n+1)
	}
	size := unsafe.Sizeof(poolObj{})
	for i := 1; i < n; i++ {
		if uintptr(unsafe.Pointer(got[i]))-uintptr(unsafe.Pointer(got[0])) != uintptr(i)*size {
			t.Fatalf("object %d of a fresh slab is not the slab's element %d", i, i)
		}
	}
	for _, o := range got {
		if o.next != nil {
			t.Fatal("a taken object keeps its pool link")
		}
		if o.binds != 1 {
			t.Fatalf("object bound %d times, want once", o.binds)
		}
	}
	a, b := got[0], got[n]
	p.Put(a)
	p.Put(b)
	if p.Live() != n-1 {
		t.Fatalf("%d live after two puts, want %d", p.Live(), n-1)
	}
	if o := p.Get(); o != b {
		t.Fatal("the last object put back is not the next one taken")
	}
	if o := p.Get(); o != a {
		t.Fatal("the first object put back is not taken second")
	}
	for i := 0; i < n-1; i++ {
		p.Get() // the rest of the second slab
	}
	if binds != 2*n {
		t.Fatalf("%d binds after reuse, want %d: a reused object was bound again", binds, 2*n)
	}
	p.Get()
	if binds != 3*n {
		t.Fatalf("%d binds after the second slab ran out, want %d", binds, 3*n)
	}
	if p.Live() != 2*n+1 {
		t.Fatalf("%d live, want %d", p.Live(), 2*n+1)
	}
}

// TestPoolLiveAcrossPools checks that an object taken from one pool and
// put back into another moves the count between them: only the sum
// means anything, and it is zero once every object is back.
func TestPoolLiveAcrossPools(t *testing.T) {
	var binds int
	src, dst := newTestPool(&binds), newTestPool(&binds)
	o := src.Get()
	dst.Put(o)
	if src.Live() != 1 || dst.Live() != -1 || src.Live()+dst.Live() != 0 {
		t.Fatalf("live %d and %d, want 1 and -1", src.Live(), dst.Live())
	}
	if dst.Get() != o {
		t.Fatal("the destination pool does not hand out the object put into it")
	}
}
