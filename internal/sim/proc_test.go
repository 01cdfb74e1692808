package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestProcPanicReraisesFromRun pins that a panic inside a process body
// surfaces from Kernel.Run on the caller's goroutine with its original
// value, so a caller (a tuner sweep, a long-running server) can recover
// it instead of losing the whole process.
func TestProcPanicReraisesFromRun(t *testing.T) {
	type boom struct{ at Time }
	k := NewKernel(1)
	k.Spawn("bomb", 0, func(p *Proc) {
		p.Sleep(5)
		panic(boom{at: p.Now()})
	})
	defer func() {
		if r := recover(); r != (boom{at: 5}) {
			t.Fatalf("recovered %#v, want boom{at: 5}", r)
		}
	}()
	k.Run()
	t.Fatal("Run returned normally after a process panicked")
}

// TestBlockFromCallbackPanics pins that a blocking call made from
// kernel-callback context — here a Sleep from an After callback, the
// shape of a Compute in an observer hook — panics with a message that
// names the process, and that the panic is recoverable around a
// sequential Kernel.Run like any other.
func TestBlockFromCallbackPanics(t *testing.T) {
	k := NewKernel(1)
	var rank *Proc
	k.Spawn("rank", 7, func(p *Proc) {
		rank = p
		p.Sleep(10)
	})
	k.After(5, func() { rank.Sleep(1) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "process rank7 ") || !strings.Contains(msg, "kernel-callback context") {
			t.Fatalf("recovered %q, want a panic naming rank7 and kernel-callback context", msg)
		}
	}()
	k.Run()
	t.Fatal("Run returned normally after a callback blocked a process")
}

// TestFinishedProcsReleaseGoroutines pins that a process whose body
// returns gives back everything that backed it: after a run in which
// every process finishes, the goroutine count is back where it started.
func TestFinishedProcsReleaseGoroutines(t *testing.T) {
	const n, slack = 64, 2
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	for i := 0; i < n; i++ {
		k.Spawn("worker", 0, func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(Time(i + j))
			}
		})
	}
	k.Run()
	if after := runtime.NumGoroutine(); after > before+slack {
		t.Fatalf("%d goroutines after %d procs finished, %d before", after, n, before)
	}
}
