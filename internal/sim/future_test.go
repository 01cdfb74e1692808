package sim

import "testing"

// newFuture returns an incomplete future bound to k, as an owner
// embedding one would arm it.
func newFuture(k *Kernel) *Future {
	f := new(Future)
	k.InitFuture(f)
	return f
}

func TestFutureWaitBeforeComplete(t *testing.T) {
	k := NewKernel(1)
	f := newFuture(k)
	var woke Time
	k.Spawn("w", 0, func(p *Proc) {
		p.Wait(f)
		woke = p.Now()
	})
	k.At(100, f.Complete)
	k.Run()
	if woke != 100 {
		t.Fatalf("waiter woke at %v, want 100", woke)
	}
	if f.DoneAt() != 100 {
		t.Fatalf("DoneAt = %v, want 100", f.DoneAt())
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	k := NewKernel(1)
	f := newFuture(k)
	k.At(10, f.Complete)
	var woke Time
	k.Spawn("w", 0, func(p *Proc) {
		p.Sleep(50)
		p.Wait(f) // already done: should not block
		woke = p.Now()
	})
	k.Run()
	if woke != 50 {
		t.Fatalf("waiter woke at %v, want 50 (no extra blocking)", woke)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := NewKernel(1)
	f := newFuture(k)
	k.At(1, f.Complete)
	k.At(2, func() {
		defer func() {
			if recover() == nil {
				t.Error("second Complete did not panic")
			}
		}()
		f.Complete()
	})
	k.Run()
}

func TestWaitAll(t *testing.T) {
	k := NewKernel(1)
	f1, f2, f3 := newFuture(k), newFuture(k), newFuture(k)
	k.At(10, f1.Complete)
	k.At(30, f3.Complete)
	k.At(20, f2.Complete)
	var woke Time
	k.Spawn("w", 0, func(p *Proc) {
		p.WaitAll(f1, nil, f2, f3)
		woke = p.Now()
	})
	k.Run()
	if woke != 30 {
		t.Fatalf("WaitAll woke at %v, want 30", woke)
	}
}

func TestJoin(t *testing.T) {
	k := NewKernel(1)
	f1, f2 := newFuture(k), newFuture(k)
	k.At(10, f1.Complete)
	k.At(40, f2.Complete)
	var j Future
	k.InitJoin(&j, f1, f2)
	k.Run()
	if !j.Done() || j.DoneAt() != 40 {
		t.Fatalf("Join done=%v at %v, want done at 40", j.Done(), j.DoneAt())
	}
	// Re-armed in place once complete, as a per-slot join is every
	// cycle.
	f3 := newFuture(k)
	k.At(70, f3.Complete)
	k.InitJoin(&j, f1, nil, f3)
	if j.Done() {
		t.Fatal("re-armed Join still done")
	}
	k.Run()
	if !j.Done() || j.DoneAt() != 70 {
		t.Fatalf("re-armed Join done=%v at %v, want done at 70", j.Done(), j.DoneAt())
	}
}

func TestJoinEmptyAndDone(t *testing.T) {
	k := NewKernel(1)
	f := newFuture(k)
	k.At(1, f.Complete)
	var j Future
	done := false
	k.At(2, func() {
		k.InitJoin(&j, f)
		j.Then(Func(func() { done = true }))
	})
	k.Run()
	if !done {
		t.Fatal("Join of completed futures never completed")
	}
	// An empty join completes one hop after arming, and re-arms.
	for round := 0; round < 2; round++ {
		done = false
		at := k.Now() + 5
		k.At(at, func() {
			k.InitJoin(&j)
			j.Then(Func(func() { done = true }))
		})
		k.Run()
		if !done || j.DoneAt() != at {
			t.Fatalf("round %d: empty Join done=%v at %v, want done at %v", round, done, j.DoneAt(), at)
		}
	}
}

func TestOnDoneAfterCompletion(t *testing.T) {
	k := NewKernel(1)
	f := newFuture(k)
	k.At(1, f.Complete)
	called := false
	k.At(5, func() { f.Then(Func(func() { called = true })) })
	k.Run()
	if !called {
		t.Fatal("Then on a completed future never ran")
	}
}
